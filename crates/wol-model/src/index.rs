//! Secondary attribute indexes over instances.
//!
//! Clause-body matching and hash-join execution both repeatedly ask the same
//! question of an instance: *which objects of class `C` have attribute `a`
//! equal to value `v`?* Answering it by scanning the whole extent makes every
//! join quadratic. This module provides the answer in (amortised) constant
//! time: a per-`(class, attribute)` hash index from the attribute's value to
//! the object identities carrying it.
//!
//! Design:
//!
//! * **Lazy** — an index is built the first time `(class, attribute)` is
//!   probed, by one pass over the class's extent. Workloads that never join on
//!   an attribute never pay for indexing it.
//! * **Maintained across single-object mutations** — insert / update /
//!   remove adjust the affected entries of every built index of the class,
//!   keeping buckets in ascending identity order so a maintained index is
//!   bit-identical to a fresh rebuild. This keeps the standing pipeline's
//!   per-batch delta joins O(batch) instead of O(extent). Bulk loads drop
//!   the class's indexes instead, and histograms / columns / row indexes are
//!   dropped by any mutation of their class (they are planner statistics and
//!   batch projections, rebuilt lazily).
//! * **Versioned** — an [`AttrIndex`] spreads its buckets over hash shards,
//!   each behind an `Arc`. An [`Instance::snapshot`](crate::Instance::snapshot)
//!   carries its origin's built indexes by cloning them, which copies one
//!   pointer per index; maintenance on either side afterwards replaces the
//!   one shard it touches and leaves the other side's answers as they were.
//!   Probes stay a hash lookup.
//! * **Hash buckets, exact verification** — buckets are keyed by a 64-bit
//!   hash of the attribute value; probes re-check candidates against the live
//!   value, so hash collisions cost time but never correctness.
//!
//! The cache lives behind an `RwLock` inside [`Instance`](crate::Instance):
//! probing takes `&self`, so the read path of the engine stays
//! borrow-friendly, and shared references can be handed to scoped worker
//! threads (the parallel executors probe one instance from many workers at
//! once). Every instance owns its cache: equality ignores it (it is derived
//! data), a clone starts with an empty one, a snapshot with one holding only
//! the origin's attribute indexes — so whatever a version builds lazily is
//! installed in that version's cache alone and never becomes visible on the
//! version it was copied from or on that version's other copies.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::column::{AttrColumn, StringInterner};
use crate::histogram::AttrHistogram;
use crate::oid::Oid;
use crate::types::{ClassName, Label};
use crate::values::Value;

/// Hash of an attribute value, as used by the index buckets.
pub fn value_hash(value: &Value) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Entries one shard is sized for: an index grows (doubling its shard count)
/// once it holds more than this many entries per shard, so a mutation of a
/// shared index copies about this many buckets whatever the extent's size.
const SHARD_ENTRIES: usize = 64;

/// One hash shard of an index: value-hash → identities, ascending.
type Shard = HashMap<u64, Vec<Oid>>;

/// A single `(class, attribute)` index: value-hash → object identities whose
/// attribute carries a value with that hash.
///
/// The buckets are spread over a power-of-two number of hash shards, each
/// behind its own `Arc` under an `Arc`'d spine. `clone` is therefore one
/// pointer copy and shares every shard; `insert_sorted`
/// and `remove_entry` on either copy then replace only
/// the spine and the one shard they touch, leaving the other copy's answers
/// exactly as they were. Probes never copy.
#[derive(Clone, Debug)]
pub struct AttrIndex {
    shards: Arc<Vec<Arc<Shard>>>,
    entries: usize,
    distinct: usize,
}

impl Default for AttrIndex {
    fn default() -> Self {
        AttrIndex::with_capacity(0)
    }
}

impl AttrIndex {
    /// An empty index with enough shards for `entries` entries, so building
    /// over an extent of known size never re-shards.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        let shards = entries.div_ceil(SHARD_ENTRIES).max(1).next_power_of_two();
        AttrIndex {
            shards: Arc::new((0..shards).map(|_| Arc::default()).collect()),
            entries: 0,
            distinct: 0,
        }
    }

    fn shard_of(&self, hash: u64) -> usize {
        // The shard count is a power of two; the low bits pick the shard.
        (hash as usize) & (self.shards.len() - 1)
    }

    /// The one shard `hash` lives in, unshared from every other copy.
    fn shard_mut(&mut self, hash: u64) -> &mut Shard {
        let at = self.shard_of(hash);
        Arc::make_mut(&mut Arc::make_mut(&mut self.shards)[at])
    }

    /// Double the shard count once the shards run over their sized load. A
    /// bucket's hash decides its shard, so probes answer the same before and
    /// after.
    fn grow_if_crowded(&mut self) {
        let old = self.shards.len();
        if self.entries <= old * SHARD_ENTRIES {
            return;
        }
        let mut grown: Vec<Shard> = (0..old * 2).map(|_| Shard::new()).collect();
        let shards = std::mem::take(&mut self.shards);
        for shard in Arc::try_unwrap(shards).unwrap_or_else(|shared| (*shared).clone()) {
            for (hash, bucket) in Arc::try_unwrap(shard).unwrap_or_else(|shared| (*shared).clone())
            {
                grown[(hash as usize) & (old * 2 - 1)].insert(hash, bucket);
            }
        }
        self.shards = Arc::new(grown.into_iter().map(Arc::new).collect());
    }

    /// Record that `oid`'s attribute value hashes to `hash`. Builders call
    /// this in extent (ascending identity) order.
    pub fn add(&mut self, hash: u64, oid: Oid) {
        let bucket = self.shard_mut(hash).entry(hash).or_default();
        let opened = bucket.is_empty();
        bucket.push(oid);
        self.entries += 1;
        self.distinct += usize::from(opened);
        self.grow_if_crowded();
    }

    /// The candidate identities for a value hash. Candidates must be verified
    /// against the live attribute value by the caller.
    pub(crate) fn candidates(&self, hash: u64) -> &[Oid] {
        self.shards[self.shard_of(hash)]
            .get(&hash)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Insert `oid` into `hash`'s bucket, keeping the bucket in ascending
    /// identity order — the order a fresh extent-order build produces, so a
    /// maintained index stays bit-identical to a rebuilt one. A no-op if the
    /// identity is already present.
    pub(crate) fn insert_sorted(&mut self, hash: u64, oid: Oid) {
        // Look before unsharing: a no-op must not copy a shard.
        let Err(pos) = self.candidates(hash).binary_search(&oid) else {
            return;
        };
        let bucket = self.shard_mut(hash).entry(hash).or_default();
        let opened = bucket.is_empty();
        bucket.insert(pos, oid);
        self.entries += 1;
        self.distinct += usize::from(opened);
        self.grow_if_crowded();
    }

    /// Remove `oid` from `hash`'s bucket. Emptied buckets are dropped so
    /// [`distinct`](AttrIndex::distinct) matches a fresh rebuild.
    pub(crate) fn remove_entry(&mut self, hash: u64, oid: &Oid) {
        let Ok(pos) = self.candidates(hash).binary_search(oid) else {
            return;
        };
        let shard = self.shard_mut(hash);
        let Some(bucket) = shard.get_mut(&hash) else {
            return;
        };
        bucket.remove(pos);
        let emptied = bucket.is_empty();
        if emptied {
            shard.remove(&hash);
        }
        self.entries -= 1;
        self.distinct -= usize::from(emptied);
    }

    /// Number of indexed `(value, oid)` entries.
    pub(crate) fn len(&self) -> usize {
        self.entries
    }

    /// Number of distinct value hashes present. Hash collisions can only
    /// merge buckets, so this is a (tight in practice) *lower bound* on the
    /// attribute's number of distinct values — exactly the quantity the query
    /// planner's `1/ndv` equality selectivities need.
    pub(crate) fn distinct(&self) -> usize {
        self.distinct
    }

    /// Shard count and how many of those shards `other` holds too (the same
    /// allocation, not equal content).
    pub(crate) fn shards_shared_with(&self, other: Option<&AttrIndex>) -> (usize, usize) {
        let shared = match other {
            Some(other) if other.shards.len() == self.shards.len() => self
                .shards
                .iter()
                .zip(other.shards.iter())
                .filter(|(mine, theirs)| Arc::ptr_eq(mine, theirs))
                .count(),
            _ => 0,
        };
        (self.shards.len(), shared)
    }
}

/// The per-instance cache of attribute indexes, histograms, **and columnar
/// projections** (row indexes + attribute columns, see [`crate::column`]),
/// keyed by class and attribute label. The nesting (class, then label) lets
/// probes — the hot path — look up with borrowed keys, allocation-free. All
/// derived structures ride in the same cache so one `invalidate_class` drops
/// them together: a mutation can never leave a stale histogram or column
/// behind an up-to-date index or vice versa. The string interner is the one
/// exception — it is append-only (codes never change meaning), so
/// invalidation keeps it and rebuilt columns re-derive the same codes.
#[derive(Debug, Default)]
pub(crate) struct IndexCache {
    indexes: BTreeMap<ClassName, BTreeMap<Label, AttrIndex>>,
    histograms: BTreeMap<ClassName, BTreeMap<Label, AttrHistogram>>,
    columns: BTreeMap<ClassName, BTreeMap<Label, Arc<AttrColumn>>>,
    row_indexes: BTreeMap<ClassName, Arc<Vec<Oid>>>,
    interner: StringInterner,
}

impl IndexCache {
    /// The index for `(class, attr)`, if it has been built.
    pub(crate) fn get(&self, class: &ClassName, attr: &str) -> Option<&AttrIndex> {
        self.indexes.get(class)?.get(attr)
    }

    /// Whether an index for `(class, attr)` exists.
    pub(crate) fn contains(&self, class: &ClassName, attr: &str) -> bool {
        self.get(class, attr).is_some()
    }

    /// Install a freshly built index.
    pub(crate) fn insert(&mut self, class: ClassName, attr: Label, index: AttrIndex) {
        self.indexes.entry(class).or_default().insert(attr, index);
    }

    /// The index for `(class, attr)`, installing `built` if none is there
    /// yet: when two readers race to build, both end up probing the first.
    pub(crate) fn get_or_insert(
        &mut self,
        class: &ClassName,
        attr: &str,
        built: AttrIndex,
    ) -> &AttrIndex {
        self.indexes
            .entry(class.clone())
            .or_default()
            .entry(Label::new(attr))
            .or_insert(built)
    }

    /// Every built `(class, attribute)` index, in key order.
    pub(crate) fn indexes(&self) -> impl Iterator<Item = (&ClassName, &Label, &AttrIndex)> {
        self.indexes.iter().flat_map(|(class, by_attr)| {
            by_attr
                .iter()
                .map(move |(attr, index)| (class, attr, index))
        })
    }

    /// A cache holding this one's attribute indexes *by reference* (each
    /// shares its shards until either side next changes it) and nothing
    /// else: histograms, columns, row indexes and the dictionary start empty
    /// and are rebuilt lazily by whoever owns the new cache.
    pub(crate) fn share_indexes(&self) -> IndexCache {
        IndexCache {
            indexes: self.indexes.clone(),
            ..IndexCache::default()
        }
    }

    /// The histogram for `(class, attr)`, if it has been built.
    pub(crate) fn get_histogram(&self, class: &ClassName, attr: &str) -> Option<&AttrHistogram> {
        self.histograms.get(class)?.get(attr)
    }

    /// Whether a histogram for `(class, attr)` exists.
    pub(crate) fn contains_histogram(&self, class: &ClassName, attr: &str) -> bool {
        self.get_histogram(class, attr).is_some()
    }

    /// Install a freshly built histogram.
    pub(crate) fn insert_histogram(
        &mut self,
        class: ClassName,
        attr: Label,
        histogram: AttrHistogram,
    ) {
        self.histograms
            .entry(class)
            .or_default()
            .insert(attr, histogram);
    }

    /// The columnar projection of `(class, attr)`, if it has been built.
    pub(crate) fn get_column(&self, class: &ClassName, attr: &str) -> Option<&Arc<AttrColumn>> {
        self.columns.get(class)?.get(attr)
    }

    /// Whether a column for `(class, attr)` exists.
    pub(crate) fn contains_column(&self, class: &ClassName, attr: &str) -> bool {
        self.get_column(class, attr).is_some()
    }

    /// Install a freshly built column.
    pub(crate) fn insert_column(&mut self, class: ClassName, attr: Label, column: Arc<AttrColumn>) {
        self.columns.entry(class).or_default().insert(attr, column);
    }

    /// The row index (extent identities in extent order) of `class`, if built.
    pub(crate) fn get_row_index(&self, class: &ClassName) -> Option<&Arc<Vec<Oid>>> {
        self.row_indexes.get(class)
    }

    /// Install a freshly built row index.
    pub(crate) fn insert_row_index(&mut self, class: ClassName, rows: Arc<Vec<Oid>>) {
        self.row_indexes.insert(class, rows);
    }

    /// The shared string dictionary of the columnar cache.
    pub(crate) fn interner(&self) -> &StringInterner {
        &self.interner
    }

    /// Mutable access to the dictionary (column builds intern through this).
    pub(crate) fn interner_mut(&mut self) -> &mut StringInterner {
        &mut self.interner
    }

    /// Drop every index, histogram, column, and row index of `class` (called
    /// on bulk mutations of the class). The string dictionary survives: it is
    /// append-only, so stale codes cannot be re-read wrongly.
    pub(crate) fn invalidate_class(&mut self, class: &ClassName) {
        self.indexes.remove(class);
        self.histograms.remove(class);
        self.columns.remove(class);
        self.row_indexes.remove(class);
    }

    /// Drop the *derived statistics* of `class` — histograms, columns, and
    /// the row index — but keep its attribute indexes. Single-object
    /// mutations maintain the indexes in place (see
    /// [`Instance`](crate::Instance)); the statistics are rebuilt lazily.
    pub(crate) fn invalidate_stats(&mut self, class: &ClassName) {
        self.histograms.remove(class);
        self.columns.remove(class);
        self.row_indexes.remove(class);
    }

    /// Mutable access to the built attribute indexes of `class`, if any have
    /// been built — the hook single-object mutations maintain them through.
    pub(crate) fn indexes_mut(
        &mut self,
        class: &ClassName,
    ) -> Option<&mut BTreeMap<Label, AttrIndex>> {
        self.indexes.get_mut(class)
    }

    /// Number of built `(class, attribute)` indexes.
    pub(crate) fn len(&self) -> usize {
        self.indexes.values().map(BTreeMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate_and_report() {
        let mut idx = AttrIndex::default();
        assert_eq!(idx.entries, 0);
        let class = ClassName::new("C");
        let h = value_hash(&Value::str("x"));
        idx.add(h, Oid::new(class.clone(), 0));
        idx.add(h, Oid::new(class.clone(), 1));
        assert_eq!(idx.candidates(h).len(), 2);
        assert_eq!(idx.len(), 2);
        assert!(idx.candidates(h ^ 1).is_empty());
    }

    /// Growing past the sized load re-shards without changing any answer, and
    /// a pre-sized index never re-shards.
    #[test]
    fn resharding_keeps_every_bucket_and_count() {
        let class = ClassName::new("C");
        let n = 10 * SHARD_ENTRIES as u64;
        let mut grown = AttrIndex::default();
        let mut sized = AttrIndex::with_capacity(n as usize);
        let shards_when_sized = sized.shards.len();
        for id in 0..n {
            // Two identities per value: half as many buckets as entries.
            let hash = value_hash(&Value::int((id / 2) as i64));
            grown.add(hash, Oid::new(class.clone(), id));
            sized.add(hash, Oid::new(class.clone(), id));
        }
        assert!(grown.shards.len() > 1);
        assert_eq!(sized.shards.len(), shards_when_sized);
        for index in [&grown, &sized] {
            assert_eq!(index.len(), n as usize);
            assert_eq!(index.distinct(), n as usize / 2);
            for key in 0..n / 2 {
                let ids: Vec<u64> = index
                    .candidates(value_hash(&Value::int(key as i64)))
                    .iter()
                    .map(Oid::id)
                    .collect();
                assert_eq!(ids, vec![2 * key, 2 * key + 1]);
            }
        }
    }

    /// Maintenance on one copy replaces the shard it touches and nothing
    /// else; the other copy keeps answering as before.
    #[test]
    fn maintaining_a_copy_leaves_the_shared_original_untouched() {
        let class = ClassName::new("C");
        let n = 16 * SHARD_ENTRIES as u64;
        let mut writer = AttrIndex::with_capacity(n as usize);
        for id in 0..n {
            writer.add(
                value_hash(&Value::int(id as i64)),
                Oid::new(class.clone(), id),
            );
        }
        let held = writer.clone();
        let total = writer.shards.len();
        assert_eq!(writer.shards_shared_with(Some(&held)), (total, total));

        let (moved, from, to) = (Oid::new(class.clone(), 7), 7i64, -7i64);
        // No-ops copy nothing.
        writer.insert_sorted(value_hash(&Value::int(from)), moved.clone());
        writer.remove_entry(value_hash(&Value::int(to)), &moved);
        assert_eq!(writer.shards_shared_with(Some(&held)), (total, total));
        writer.remove_entry(value_hash(&Value::int(from)), &moved);
        writer.insert_sorted(value_hash(&Value::int(to)), moved.clone());
        let (_, shared) = writer.shards_shared_with(Some(&held));
        assert!(
            shared >= total - 2,
            "{shared} of {total} shards still shared"
        );
        assert_eq!(writer.shards_shared_with(None), (total, 0));

        assert_eq!(
            held.candidates(value_hash(&Value::int(from))),
            std::slice::from_ref(&moved)
        );
        assert!(held.candidates(value_hash(&Value::int(to))).is_empty());
        assert!(writer.candidates(value_hash(&Value::int(from))).is_empty());
        assert_eq!(writer.candidates(value_hash(&Value::int(to))), [moved]);
        assert_eq!((held.len(), held.distinct()), (n as usize, n as usize));
        assert_eq!((writer.len(), writer.distinct()), (n as usize, n as usize));
    }

    #[test]
    fn cache_invalidation_is_per_class() {
        let mut cache = IndexCache::default();
        let a = ClassName::new("A");
        let b = ClassName::new("B");
        cache.insert(a.clone(), "name".into(), AttrIndex::default());
        cache.insert(b.clone(), "name".into(), AttrIndex::default());
        assert_eq!(cache.len(), 2);
        cache.invalidate_class(&a);
        assert!(!cache.contains(&a, "name"));
        assert!(cache.contains(&b, "name"));
    }

    #[test]
    fn histograms_share_the_per_class_invalidation() {
        let mut cache = IndexCache::default();
        let a = ClassName::new("A");
        let b = ClassName::new("B");
        cache.insert_histogram(a.clone(), "x".into(), AttrHistogram::default());
        cache.insert_histogram(b.clone(), "x".into(), AttrHistogram::default());
        assert!(cache.contains_histogram(&a, "x"));
        cache.invalidate_class(&a);
        assert!(!cache.contains_histogram(&a, "x"));
        assert!(cache.contains_histogram(&b, "x"));
    }

    #[test]
    fn columns_share_invalidation_but_the_dictionary_survives() {
        let mut cache = IndexCache::default();
        let a = ClassName::new("A");
        let code = cache.interner_mut().intern("hot").unwrap();
        let values = [Some(Value::str("hot"))];
        let refs: Vec<Option<&Value>> = values.iter().map(Option::as_ref).collect();
        let col = Arc::new(AttrColumn::build(&refs, cache.interner_mut()));
        cache.insert_column(a.clone(), "t".into(), col);
        cache.insert_row_index(a.clone(), Arc::new(vec![Oid::new(a.clone(), 0)]));
        assert!(cache.contains_column(&a, "t"));
        assert!(cache.get_row_index(&a).is_some());
        cache.invalidate_class(&a);
        assert!(!cache.contains_column(&a, "t"));
        assert!(cache.get_row_index(&a).is_none());
        // Append-only dictionary survives invalidation: same string, same code.
        assert_eq!(cache.interner().code_of("hot"), Some(code));
    }

    #[test]
    fn equal_values_hash_equal() {
        let a = Value::record([("x", Value::int(1))]);
        let b = Value::record([("x", Value::int(1))]);
        assert_eq!(value_hash(&a), value_hash(&b));
    }
}
