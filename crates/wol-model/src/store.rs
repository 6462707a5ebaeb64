//! The persistent per-class object store behind [`Instance`](crate::Instance).
//!
//! A class's objects live in one ordered, *versioned* sequence: an `Arc`'d
//! spine of `Arc`'d chunks, each chunk holding at most [`CHUNK_CAP`]
//! `(Oid, Value)` entries in ascending identity order. Cloning a store copies
//! one pointer; the clone and the original then share every chunk. A mutation
//! copies only what it touches — the spine (one pointer per chunk) the first
//! time after a clone, and the one chunk the object lives in — through
//! [`Arc::make_mut`], so a reader holding an older version keeps seeing
//! exactly the entries it started with and pins only the chunks the writer
//! has since replaced.
//!
//! This is the database-ASM reading of a state transition: a batch is an
//! update set, and the successor state shares everything the update set did
//! not name. The identity and its value sit in the same entry, so "an extent
//! member without a value" is unrepresentable.
//!
//! Order is by identity discriminator alone (every identity in one store
//! belongs to the same class), which is also the order `BTreeMap<Oid, _>`
//! iteration had — nothing here depends on identities being dense or
//! monotone.

use std::collections::HashSet;
use std::sync::Arc;

use crate::oid::Oid;
use crate::values::Value;

/// Most entries one chunk holds. A mutation after a clone deep-copies one
/// chunk, so this bounds the copy; lookups pay `log2` of it after the spine
/// search.
const CHUNK_CAP: usize = 64;

/// A chunk this small after a removal is folded into a neighbour when the
/// two together stay at or below half a chunk, so long remove/append churn
/// cannot decay the store into one-entry chunks.
const MERGE_BELOW: usize = CHUNK_CAP / 4;

/// Entries in ascending identity order; `oids[i]` carries `values[i]`. The
/// two vectors are only ever pushed, inserted, removed and split together.
#[derive(Clone, Debug, Default)]
struct Chunk {
    oids: Vec<Oid>,
    values: Vec<Value>,
}

impl Chunk {
    fn len(&self) -> usize {
        self.oids.len()
    }

    fn find(&self, id: u64) -> Result<usize, usize> {
        self.oids.binary_search_by_key(&id, Oid::id)
    }

    fn insert(&mut self, pos: usize, oid: Oid, value: Value) {
        self.oids.insert(pos, oid);
        self.values.insert(pos, value);
    }

    fn split_off(&mut self, at: usize) -> Chunk {
        Chunk {
            oids: self.oids.split_off(at),
            values: self.values.split_off(at),
        }
    }
}

/// One spine entry: a non-empty chunk and the discriminator of its first
/// entry, kept inline so the spine search touches no chunk.
#[derive(Clone, Debug)]
struct Slot {
    lo: u64,
    chunk: Arc<Chunk>,
}

/// All objects of one class. See the [module docs](self).
#[derive(Clone, Debug, Default)]
pub(crate) struct ClassStore {
    spine: Arc<Vec<Slot>>,
    len: usize,
}

/// Content equality: two stores are equal when they hold the same entries,
/// however those are cut into chunks.
impl PartialEq for ClassStore {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && (Arc::ptr_eq(&self.spine, &other.spine) || self.iter().eq(other.iter()))
    }
}

impl Eq for ClassStore {}

impl ClassStore {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slot whose chunk holds `id`, or would on insertion.
    fn slot_of(&self, id: u64) -> usize {
        self.spine
            .partition_point(|slot| slot.lo <= id)
            .saturating_sub(1)
    }

    pub(crate) fn get(&self, id: u64) -> Option<&Value> {
        let chunk = &self.spine.get(self.slot_of(id))?.chunk;
        chunk.find(id).ok().map(|pos| &chunk.values[pos])
    }

    /// Identities in ascending order.
    pub(crate) fn oids(&self) -> impl Iterator<Item = &Oid> {
        self.spine.iter().flat_map(|slot| slot.chunk.oids.iter())
    }

    /// Entries in ascending identity order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Oid, &Value)> {
        self.spine
            .iter()
            .flat_map(|slot| slot.chunk.oids.iter().zip(&slot.chunk.values))
    }

    /// Add an entry. False, with nothing changed, if the identity is already
    /// present.
    pub(crate) fn insert(&mut self, oid: Oid, value: Value) -> bool {
        let id = oid.id();
        let at = self.slot_of(id);
        let pos = match self.spine.get(at).map(|slot| slot.chunk.find(id)) {
            Some(Ok(_)) => return false,
            Some(Err(pos)) => pos,
            None => 0,
        };
        let spine = Arc::make_mut(&mut self.spine);
        self.len += 1;
        // Ascending loads (fresh identities, snapshot restore) fill each chunk
        // completely instead of leaving split halves behind.
        let past_full_tail = at + 1 == spine.len() && pos == CHUNK_CAP;
        if spine.is_empty() || past_full_tail {
            let mut chunk = Chunk::default();
            chunk.insert(0, oid, value);
            spine.push(Slot {
                lo: id,
                chunk: Arc::new(chunk),
            });
            return true;
        }
        let chunk = Arc::make_mut(&mut spine[at].chunk);
        let half = CHUNK_CAP / 2;
        let mut upper = (chunk.len() == CHUNK_CAP).then(|| chunk.split_off(half));
        match &mut upper {
            Some(upper) if pos > half => upper.insert(pos - half, oid, value),
            _ => chunk.insert(pos, oid, value),
        }
        spine[at].lo = spine[at].chunk.oids[0].id();
        if let Some(upper) = upper {
            let slot = Slot {
                lo: upper.oids[0].id(),
                chunk: Arc::new(upper),
            };
            spine.insert(at + 1, slot);
        }
        true
    }

    /// Replace the value of a present identity, returning the old one.
    pub(crate) fn replace(&mut self, id: u64, value: Value) -> Option<Value> {
        let at = self.slot_of(id);
        let pos = self.spine.get(at)?.chunk.find(id).ok()?;
        let chunk = Arc::make_mut(&mut Arc::make_mut(&mut self.spine)[at].chunk);
        Some(std::mem::replace(&mut chunk.values[pos], value))
    }

    pub(crate) fn remove(&mut self, id: u64) -> Option<Value> {
        let at = self.slot_of(id);
        let pos = self.spine.get(at)?.chunk.find(id).ok()?;
        let spine = Arc::make_mut(&mut self.spine);
        let chunk = Arc::make_mut(&mut spine[at].chunk);
        chunk.oids.remove(pos);
        let removed = chunk.values.remove(pos);
        self.len -= 1;
        match chunk.oids.first().map(Oid::id) {
            None => {
                spine.remove(at);
            }
            Some(lo) => {
                spine[at].lo = lo;
                if spine[at].chunk.len() < MERGE_BELOW {
                    Self::merge_small(spine, at);
                }
            }
        }
        Some(removed)
    }

    /// Fold the small chunk at `at` into a neighbour if the pair fits in half
    /// a chunk (so the merged chunk is not about to split again).
    fn merge_small(spine: &mut Vec<Slot>, at: usize) {
        let fits = |a: &Slot, b: &Slot| a.chunk.len() + b.chunk.len() <= CHUNK_CAP / 2;
        let left = if at + 1 < spine.len() && fits(&spine[at], &spine[at + 1]) {
            at
        } else if at > 0 && fits(&spine[at - 1], &spine[at]) {
            at - 1
        } else {
            return;
        };
        let right = spine.remove(left + 1).chunk;
        let right = Arc::try_unwrap(right).unwrap_or_else(|shared| (*shared).clone());
        let into = Arc::make_mut(&mut spine[left].chunk);
        into.oids.extend(right.oids);
        into.values.extend(right.values);
    }

    /// Chunk count and how many of those chunks `other` holds too (the same
    /// allocation, not equal content).
    pub(crate) fn chunks_shared_with(&self, other: Option<&ClassStore>) -> (usize, usize) {
        let theirs: HashSet<*const Chunk> = other
            .iter()
            .flat_map(|store| store.spine.iter())
            .map(|slot| Arc::as_ptr(&slot.chunk))
            .collect();
        let shared = self
            .spine
            .iter()
            .filter(|slot| theirs.contains(&Arc::as_ptr(&slot.chunk)))
            .count();
        (self.spine.len(), shared)
    }

    /// The structural conditions every operation preserves; test support.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        let mut count = 0;
        let mut previous: Option<u64> = None;
        for slot in self.spine.iter() {
            let chunk = &slot.chunk;
            assert!(!chunk.oids.is_empty(), "empty chunk left in the spine");
            assert!(chunk.len() <= CHUNK_CAP, "chunk over capacity");
            assert_eq!(chunk.oids.len(), chunk.values.len());
            assert_eq!(slot.lo, chunk.oids[0].id(), "stale slot bound");
            for oid in &chunk.oids {
                assert!(previous < Some(oid.id()), "identities out of order");
                previous = Some(oid.id());
            }
            count += chunk.len();
        }
        assert_eq!(count, self.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ClassName;

    fn oid(id: u64) -> Oid {
        Oid::new(ClassName::new("C"), id)
    }

    fn filled(ids: impl IntoIterator<Item = u64>) -> ClassStore {
        let mut store = ClassStore::default();
        for id in ids {
            assert!(store.insert(oid(id), Value::int(id as i64)));
            store.check_invariants();
        }
        store
    }

    fn ids(store: &ClassStore) -> Vec<u64> {
        store.oids().map(Oid::id).collect()
    }

    #[test]
    fn ascending_loads_fill_chunks_and_descending_loads_split_them() {
        let cap = CHUNK_CAP as u64;
        for n in [0, 1, cap - 1, cap, cap + 1, 2 * cap + 1] {
            let up = filled(0..n);
            assert_eq!(ids(&up), (0..n).collect::<Vec<_>>());
            assert_eq!(up.spine.len(), (n as usize).div_ceil(CHUNK_CAP));
            let down = filled((0..n).rev());
            assert_eq!(down, up, "chunk layout must not affect equality");
            for id in 0..n {
                assert_eq!(down.get(id), Some(&Value::int(id as i64)));
            }
            assert_eq!(down.get(n), None);
        }
    }

    #[test]
    fn duplicate_inserts_change_nothing() {
        let mut store = filled([3, 1, 2]);
        assert!(!store.insert(oid(2), Value::int(99)));
        assert_eq!(store.get(2), Some(&Value::int(2)));
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn removing_down_to_empty_merges_and_drops_chunks() {
        let n = 4 * CHUNK_CAP as u64 + 1;
        let mut store = filled(0..n);
        // Thin every chunk out from the middle, then drain.
        for id in (0..n).filter(|id| id % 8 != 0) {
            assert_eq!(store.remove(id), Some(Value::int(id as i64)));
            store.check_invariants();
        }
        assert_eq!(ids(&store), (0..n).step_by(8).collect::<Vec<_>>());
        assert!(
            store.spine.len() <= 3,
            "sparse chunks merge: {} chunks for {} entries",
            store.spine.len(),
            store.len()
        );
        assert_eq!(store.remove(1), None);
        for id in (0..n).step_by(8) {
            store.remove(id).unwrap();
            store.check_invariants();
        }
        assert_eq!(store.len(), 0);
        assert!(store.spine.is_empty());
        assert_eq!(store, ClassStore::default());
    }

    #[test]
    fn a_mutation_after_a_clone_copies_one_chunk_and_leaves_the_clone_intact() {
        let n = 10 * CHUNK_CAP as u64;
        let mut store = filled(0..n);
        let before = store.clone();
        assert_eq!(store.chunks_shared_with(Some(&before)), (10, 10));
        store.replace(5, Value::str("edited")).unwrap();
        store.remove(3 * CHUNK_CAP as u64 + 7).unwrap();
        assert!(store.insert(oid(n), Value::int(0)));
        store.check_invariants();
        assert_eq!(store.chunks_shared_with(Some(&before)), (11, 8));
        assert_eq!(store.chunks_shared_with(None), (11, 0));
        assert_eq!(ids(&before), (0..n).collect::<Vec<_>>());
        assert_eq!(before.get(5), Some(&Value::int(5)));
        assert_ne!(store, before);
    }
}
