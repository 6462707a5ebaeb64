//! Source mutation batches for incremental view maintenance.
//!
//! A standing transformation (the `morphase` maintainer) absorbs changes to
//! its source instance as [`MutationBatch`]es — ordered lists of
//! insert/update/remove operations — and needs to know, per class, exactly
//! which identities the batch touched so it can invalidate and re-derive the
//! affected query rows. [`Instance::apply_batch`] applies a batch through the
//! ordinary mutation API (so attribute indexes, histograms and columnar
//! chunks are invalidated object-by-object, and the mutation log sees every
//! step) and folds the per-identity outcomes into a [`BatchDelta`].
//!
//! The delta classifies each touched identity by its *net* effect across the
//! batch: an object inserted and then updated is still `inserted`; an object
//! inserted and then removed cancels out entirely; an existing object updated
//! and then removed is just `removed`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::instance::Instance;
use crate::oid::Oid;
use crate::types::ClassName;
use crate::values::Value;
use crate::Result;

/// One source mutation: the unit of a [`MutationBatch`].
#[derive(Clone, Debug, PartialEq)]
pub enum SourceOp {
    /// Insert a fresh object into `class` under the next identity the
    /// instance's own generator mints that no object holds: an object
    /// inserted under an explicit identity is never overwritten.
    Insert { class: ClassName, value: Value },
    /// Replace the value of an existing object.
    Update { oid: Oid, value: Value },
    /// Remove an existing object.
    Remove { oid: Oid },
}

/// An ordered batch of source mutations, applied atomically by
/// [`Instance::apply_batch`]: either every operation applies, or the batch
/// fails on the first dangling identity with the earlier operations already
/// applied and reported in the error path's mutation log (callers that need
/// rollback journal the batch first — see `storage::persist`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MutationBatch {
    /// The operations, in application order.
    pub ops: Vec<SourceOp>,
}

impl MutationBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an insert.
    pub fn insert(mut self, class: impl Into<ClassName>, value: Value) -> Self {
        self.ops.push(SourceOp::Insert {
            class: class.into(),
            value,
        });
        self
    }

    /// Append an update.
    pub fn update(mut self, oid: Oid, value: Value) -> Self {
        self.ops.push(SourceOp::Update { oid, value });
        self
    }

    /// Append a remove.
    pub fn remove(mut self, oid: Oid) -> Self {
        self.ops.push(SourceOp::Remove { oid });
        self
    }
}

/// The net per-identity effect of a batch on one class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassDelta {
    /// Identities that exist after the batch but did not before.
    pub inserted: BTreeSet<Oid>,
    /// Identities that existed before and after, with a (possibly) new value.
    pub updated: BTreeSet<Oid>,
    /// Identities that existed before the batch and no longer do.
    pub removed: BTreeSet<Oid>,
}

impl ClassDelta {
    /// Identities whose post-batch value is new or changed: the `Δ⁺` set a
    /// semi-naive re-derivation scans.
    pub fn changed(&self) -> BTreeSet<Oid> {
        self.inserted.union(&self.updated).cloned().collect()
    }

    /// Identities whose pre-batch rows are stale: anything updated or
    /// removed.
    pub fn stale(&self) -> BTreeSet<Oid> {
        self.updated.union(&self.removed).cloned().collect()
    }

    /// Whether the delta records no change.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.updated.is_empty() && self.removed.is_empty()
    }
}

/// The net effect of one applied [`MutationBatch`], per class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchDelta {
    /// Per-class net deltas; classes without changes carry no entry.
    pub classes: BTreeMap<ClassName, ClassDelta>,
}

impl BatchDelta {
    /// The delta of one class, if it changed.
    pub fn class(&self, class: &ClassName) -> Option<&ClassDelta> {
        self.classes.get(class)
    }

    /// Whether the batch had no net effect.
    pub fn is_empty(&self) -> bool {
        self.classes.values().all(ClassDelta::is_empty)
    }
}

/// How a delta evaluation narrows one scan of a class, given a set Δ of
/// the batch's changed identities of that class. Neither variant reads the
/// extent: a scan pinned to `Only` visits Δ alone, and `Except` is the
/// extent a scan walks anyway, minus Δ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScanRestriction {
    /// Only the identities in Δ (a rotation's pivot slot).
    Only(Arc<BTreeSet<Oid>>),
    /// Every identity of the extent except those in Δ (a later changed
    /// slot: its part of the extent the batch left as it was).
    Except(Arc<BTreeSet<Oid>>),
}

impl ScanRestriction {
    /// Whether a scan under this restriction may emit `oid`.
    pub fn admits(&self, oid: &Oid) -> bool {
        match self {
            ScanRestriction::Only(delta) => delta.contains(oid),
            ScanRestriction::Except(delta) => !delta.contains(oid),
        }
    }
}

/// What [`Instance::revert_batch`] restores of the pre-batch state,
/// captured by [`Instance::batch_preimages`] before the batch applies.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BatchPreimages {
    /// The value of every identity the batch updates or removes.
    values: Vec<(Oid, Value)>,
    /// The fresh-identity counter of every class the batch inserts into.
    counters: BTreeMap<ClassName, u64>,
}

/// Per-identity life-cycle across one batch, folded left to right.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fate {
    Inserted,
    Updated,
    Removed,
}

impl Instance {
    /// Apply a mutation batch through the ordinary mutation API (so the
    /// attribute indexes stay maintained, the histogram/columnar caches
    /// invalidate per touched class, and the mutation log, if active,
    /// records every step), returning the net per-class [`BatchDelta`].
    pub fn apply_batch(&mut self, batch: &MutationBatch) -> Result<BatchDelta> {
        let mut fates: BTreeMap<Oid, Fate> = BTreeMap::new();
        for op in &batch.ops {
            match op {
                SourceOp::Insert { class, value } => {
                    let oid = self.fresh_noncolliding(class);
                    self.insert(oid.clone(), value.clone())?;
                    // An identity this batch removed and now mints again
                    // names a replaced object: a net update.
                    let fate = match fates.get(&oid) {
                        Some(Fate::Removed) => Fate::Updated,
                        _ => Fate::Inserted,
                    };
                    fates.insert(oid, fate);
                }
                SourceOp::Update { oid, value } => {
                    self.update(oid, value.clone())?;
                    match fates.get(oid) {
                        // An object this very batch inserted is still a net
                        // insert after an update.
                        Some(Fate::Inserted) => {}
                        _ => {
                            fates.insert(oid.clone(), Fate::Updated);
                        }
                    }
                }
                SourceOp::Remove { oid } => {
                    self.remove(oid)
                        .ok_or_else(|| crate::ModelError::DanglingOid(oid.to_string()))?;
                    match fates.get(oid) {
                        // Inserted then removed in the same batch: no net
                        // effect at all.
                        Some(Fate::Inserted) => {
                            fates.remove(oid);
                        }
                        _ => {
                            fates.insert(oid.clone(), Fate::Removed);
                        }
                    }
                }
            }
        }
        let mut delta = BatchDelta::default();
        for (oid, fate) in fates {
            let class = delta.classes.entry(oid.class().clone()).or_default();
            match fate {
                Fate::Inserted => class.inserted.insert(oid),
                Fate::Updated => class.updated.insert(oid),
                Fate::Removed => class.removed.insert(oid),
            };
        }
        Ok(delta)
    }

    /// Capture, *before* applying `batch`, the pre-images that
    /// [`Instance::revert_batch`] needs: the current value of every identity
    /// the batch updates or removes (first occurrence wins — that is the
    /// pre-batch value even if the batch touches the identity repeatedly),
    /// and the fresh-identity counter of every class it inserts into.
    pub fn batch_preimages(&self, batch: &MutationBatch) -> BatchPreimages {
        let mut seen = BTreeSet::new();
        let mut counters = BTreeMap::new();
        let mut values = Vec::new();
        for op in &batch.ops {
            let oid = match op {
                SourceOp::Insert { class, .. } => {
                    counters.insert(class.clone(), self.oid_counter(class));
                    continue;
                }
                SourceOp::Update { oid, .. } | SourceOp::Remove { oid } => oid,
            };
            if seen.insert(oid.clone()) {
                if let Some(value) = self.value(oid) {
                    values.push((oid.clone(), value.clone()));
                }
            }
        }
        BatchPreimages { values, counters }
    }

    /// Undo an applied batch: remove net inserts, restore updated values and
    /// re-insert removed objects under their original identities. Extents
    /// are ordered sets and the fresh-identity counters are rewound to their
    /// pre-batch values, so the reverted instance — generator state included
    /// — is bit-identical to the pre-batch state. `preimages` must come from
    /// [`Instance::batch_preimages`] on the pre-batch state.
    pub fn revert_batch(&mut self, delta: &BatchDelta, preimages: &BatchPreimages) -> Result<()> {
        let pre: BTreeMap<&Oid, &Value> = preimages.values.iter().map(|(o, v)| (o, v)).collect();
        let lookup = |oid: &Oid| {
            pre.get(oid).map(|v| (*v).clone()).ok_or_else(|| {
                crate::ModelError::Invalid(format!(
                    "no pre-image for {oid} while reverting a batch"
                ))
            })
        };
        for class_delta in delta.classes.values() {
            for oid in &class_delta.inserted {
                self.remove(oid)
                    .ok_or_else(|| crate::ModelError::DanglingOid(oid.to_string()))?;
            }
            for oid in &class_delta.updated {
                self.update(oid, lookup(oid)?)?;
            }
            for oid in &class_delta.removed {
                self.insert(oid.clone(), lookup(oid)?)?;
            }
        }
        for (class, count) in &preimages.counters {
            self.rewind_oid_counter(class, *count);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marker(name: &str, position: i64) -> Value {
        Value::record([
            ("name", Value::str(name)),
            ("position", Value::int(position)),
        ])
    }

    #[test]
    fn batch_classifies_net_effects() {
        let mut inst = Instance::new("s");
        let class = ClassName::new("M");
        let kept = inst.insert_fresh(&class, marker("kept", 1));
        let gone = inst.insert_fresh(&class, marker("gone", 2));
        let batch = MutationBatch::new()
            .insert(class.clone(), marker("new", 3))
            .update(kept.clone(), marker("kept", 10))
            .remove(gone.clone());
        let delta = inst.apply_batch(&batch).unwrap();
        let d = delta.class(&class).unwrap();
        assert_eq!(d.inserted.len(), 1);
        assert_eq!(d.updated, BTreeSet::from([kept]));
        assert_eq!(d.removed, BTreeSet::from([gone]));
        assert_eq!(inst.extent_size(&class), 2);
    }

    #[test]
    fn insert_then_update_is_a_net_insert_and_insert_then_remove_cancels() {
        let mut inst = Instance::new("s");
        let class = ClassName::new("M");
        // Predict the minted identities: the generator is sequential.
        let probe = inst.insert_fresh(&class, marker("probe", 0));
        let a = Oid::new(class.clone(), probe.id() + 1);
        let b = Oid::new(class.clone(), probe.id() + 2);
        let batch = MutationBatch::new()
            .insert(class.clone(), marker("a", 1))
            .insert(class.clone(), marker("b", 2))
            .update(a.clone(), marker("a", 9))
            .remove(b.clone());
        let delta = inst.apply_batch(&batch).unwrap();
        let d = delta.class(&class).unwrap();
        assert_eq!(d.inserted, BTreeSet::from([a.clone()]));
        assert!(d.updated.is_empty());
        assert!(d.removed.is_empty());
        assert_eq!(inst.value(&a), Some(&marker("a", 9)));
        assert!(!inst.contains(&b));
    }

    #[test]
    fn update_then_remove_is_a_net_remove() {
        let mut inst = Instance::new("s");
        let class = ClassName::new("M");
        let oid = inst.insert_fresh(&class, marker("x", 1));
        let batch = MutationBatch::new()
            .update(oid.clone(), marker("x", 2))
            .remove(oid.clone());
        let delta = inst.apply_batch(&batch).unwrap();
        let d = delta.class(&class).unwrap();
        assert_eq!(d.removed, BTreeSet::from([oid]));
        assert!(d.updated.is_empty());
    }

    /// The remove/update path must never leave the derived caches serving
    /// stale data: attribute indexes, histograms, columnar projections and
    /// the row index all have to reflect a batch as soon as it applies.
    #[test]
    fn derived_caches_are_fresh_after_update_and_remove() {
        let mut inst = Instance::new("s");
        let class = ClassName::new("M");
        let a = inst.insert_fresh(&class, marker("a", 10));
        let b = inst.insert_fresh(&class, marker("b", 20));
        let c = inst.insert_fresh(&class, marker("c", 20));

        // Build every derived structure.
        assert_eq!(
            inst.lookup_by_attr(&class, "position", &Value::int(20))
                .len(),
            2
        );
        assert_eq!(inst.attr_histogram(&class, "position").entries(), 3);
        assert!(inst.has_attr_index(&class, "position"));
        assert!(inst.has_attr_histogram(&class, "position"));
        let col = inst.attr_column(&class, "position");
        assert_eq!(col.present(), 3);
        assert_eq!(inst.class_row_index(&class).len(), 3);
        assert!(inst.has_attr_column(&class, "position"));

        // Update one value, remove another.
        let batch = MutationBatch::new()
            .update(b.clone(), marker("b", 99))
            .remove(c.clone());
        inst.apply_batch(&batch).unwrap();

        // The attribute index is maintained in place; the stats caches
        // (histogram/column/row-index) are invalidated wholesale...
        assert!(inst.has_attr_index(&class, "position"));
        assert!(!inst.has_attr_histogram(&class, "position"));
        assert!(!inst.has_attr_column(&class, "position"));
        // ...and every read sees the post-batch state only.
        assert_eq!(
            inst.lookup_by_attr(&class, "position", &Value::int(20)),
            vec![]
        );
        assert_eq!(
            inst.lookup_by_attr(&class, "position", &Value::int(99)),
            vec![b.clone()]
        );
        let histogram = inst.attr_histogram(&class, "position");
        assert_eq!(histogram.entries(), 2);
        let col = inst.attr_column(&class, "position");
        assert_eq!(col.present(), 2);
        let rows = inst.class_row_index(&class);
        assert_eq!(rows.as_slice(), &[a, b]);
    }

    /// Removing a class's final object must empty the derived views too (the
    /// degenerate case a maintainer hits when a delta retracts a whole
    /// extent).
    #[test]
    fn removing_the_last_object_empties_derived_views() {
        let mut inst = Instance::new("s");
        let class = ClassName::new("M");
        let only = inst.insert_fresh(&class, marker("solo", 5));
        assert_eq!(
            inst.lookup_by_attr(&class, "position", &Value::int(5))
                .len(),
            1
        );
        inst.apply_batch(&MutationBatch::new().remove(only))
            .unwrap();
        assert_eq!(inst.extent_size(&class), 0);
        assert!(inst
            .lookup_by_attr(&class, "position", &Value::int(5))
            .is_empty());
        assert_eq!(inst.attr_histogram(&class, "position").entries(), 0);
        assert_eq!(inst.attr_column(&class, "position").present(), 0);
        assert!(inst.class_row_index(&class).is_empty());
    }

    #[test]
    fn revert_batch_restores_the_pre_batch_state() {
        let mut inst = Instance::new("s");
        let class = ClassName::new("M");
        let kept = inst.insert_fresh(&class, marker("kept", 1));
        let gone = inst.insert_fresh(&class, marker("gone", 2));
        let reference = inst.clone();
        let batch = MutationBatch::new()
            .insert(class.clone(), marker("new", 3))
            .update(kept.clone(), marker("kept", 10))
            .remove(gone.clone());
        let pre = inst.batch_preimages(&batch);
        let delta = inst.apply_batch(&batch).unwrap();
        inst.revert_batch(&delta, &pre).unwrap();
        // Bit-identical: extents, values, *and* the identity generator (the
        // batch's mint is rewound), so `PartialEq` — not just deep-eq — holds
        // and a later insert mints the same identity it would have without
        // the reverted batch.
        assert_eq!(inst, reference);
        assert_eq!(inst.deep_eq_report(&reference), None);
        assert_eq!(
            inst.insert_fresh(&class, marker("later", 4)),
            Oid::new(class.clone(), 2)
        );
        // The maintained attribute index reflects the revert too.
        assert_eq!(
            inst.lookup_by_attr(&class, "position", &Value::int(1)),
            vec![kept]
        );
        assert!(inst
            .lookup_by_attr(&class, "position", &Value::int(3))
            .is_empty());
        assert_eq!(
            inst.lookup_by_attr(&class, "position", &Value::int(2)),
            vec![gone]
        );
    }

    /// A batch insert skips an identity held under an explicit id instead of
    /// overwriting its object, and reverting it restores the generator the
    /// batch started from, not the skipped-past one.
    #[test]
    fn a_batch_insert_never_overwrites_an_explicit_identity() {
        let mut inst = Instance::new("s");
        let class = ClassName::new("C");
        let held = Oid::new(class.clone(), 0);
        inst.insert(held.clone(), marker("held", 1)).unwrap();
        let reference = inst.clone();
        let batch = MutationBatch::new().insert(class.clone(), marker("new", 2));
        let pre = inst.batch_preimages(&batch);
        let delta = inst.apply_batch(&batch).unwrap();
        let minted = Oid::new(class.clone(), 1);
        assert_eq!(inst.extent_size(&class), 2);
        assert_eq!(inst.value(&held), Some(&marker("held", 1)));
        assert_eq!(inst.value(&minted), Some(&marker("new", 2)));
        assert_eq!(
            delta.class(&class).unwrap().inserted,
            BTreeSet::from([minted])
        );
        inst.revert_batch(&delta, &pre).unwrap();
        assert_eq!(inst, reference);
        assert_eq!(inst.oid_counter(&class), 0);
    }

    /// Over explicit identities the generator can mint an identity the same
    /// batch removed. The delta names it updated — the identity's object was
    /// replaced — not inserted, and reverting restores the removed object.
    #[test]
    fn a_batch_reminting_an_identity_it_removed_reports_an_update() {
        let mut inst = Instance::new("s");
        let class = ClassName::new("C");
        let gone = Oid::new(class.clone(), 0);
        inst.insert(gone.clone(), marker("gone", 1)).unwrap();
        let reference = inst.clone();
        let batch = MutationBatch::new()
            .remove(gone.clone())
            .insert(class.clone(), marker("new", 2));
        let pre = inst.batch_preimages(&batch);
        let delta = inst.apply_batch(&batch).unwrap();
        assert_eq!(inst.value(&gone), Some(&marker("new", 2)));
        let class_delta = delta.class(&class).unwrap();
        assert_eq!(class_delta.updated, BTreeSet::from([gone.clone()]));
        assert!(class_delta.inserted.is_empty() && class_delta.removed.is_empty());
        inst.revert_batch(&delta, &pre).unwrap();
        assert_eq!(inst, reference);
    }

    #[test]
    fn revert_batch_requires_preimages() {
        let mut inst = Instance::new("s");
        let class = ClassName::new("M");
        let oid = inst.insert_fresh(&class, marker("x", 1));
        let batch = MutationBatch::new().remove(oid);
        let delta = inst.apply_batch(&batch).unwrap();
        assert!(inst
            .revert_batch(&delta, &BatchPreimages::default())
            .is_err());
    }

    #[test]
    fn dangling_identities_error() {
        let mut inst = Instance::new("s");
        let class = ClassName::new("M");
        let ghost = Oid::new(class.clone(), 99);
        let batch = MutationBatch::new().update(ghost.clone(), marker("g", 1));
        assert!(inst.apply_batch(&batch).is_err());
        let batch = MutationBatch::new().remove(ghost);
        assert!(inst.apply_batch(&batch).is_err());
    }
}
