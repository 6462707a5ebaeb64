//! Semi-naive delta rotations over mutation batches.
//!
//! Incremental view maintenance applies the semi-naive idea across runs:
//! when a [`MutationBatch`](wol_model::MutationBatch) lands on a source, the
//! rows a query newly produces are exactly those in which at least one scanned
//! variable binds a changed identity — everything else was already
//! produced by the previous run and is still produced unchanged.
//!
//! This module computes that restriction schedule without knowing anything
//! about query plans. A query is abstracted to a list of scan [`Slot`]s —
//! `(variable, class)` pairs in any fixed order — and the classic
//! inclusion / exclusion rotation is emitted over them: one [`Rotation`] per
//! slot whose class changed, in which
//!
//! * the pivot slot *i* is restricted to its changed set Δᵢ
//!   (inserted ∪ updated),
//! * every later slot *j > i* whose class changed is restricted to its *old*
//!   set (surviving extent minus Δⱼ), and
//! * earlier slots *j < i* are unrestricted.
//!
//! Each new row has a unique last slot binding a changed identity, so the
//! rotations partition the new rows: evaluating the query once per rotation
//! and taking the union visits every new row exactly once and no old row at
//! all. Rows that must *disappear* are not this module's concern — the
//! maintainer drops them by identity (the row's key, its tuple of scanned
//! identities) using
//! [`ClassDelta::stale`](wol_model::ClassDelta::stale) before adding the
//! rotation output.

use std::collections::BTreeSet;
use std::sync::Arc;

use wol_model::{BatchDelta, ClassName, Instance, Oid};

/// One scanned variable of a query. The maintainer lists a query's slots in
/// variable-name order, the order of its row key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slot {
    /// The row variable the scan binds.
    pub var: String,
    /// The class whose extent it scans.
    pub class: ClassName,
}

impl Slot {
    /// Convenience constructor.
    pub fn new(var: impl Into<String>, class: impl Into<ClassName>) -> Slot {
        Slot {
            var: var.into(),
            class: class.into(),
        }
    }
}

/// One semi-naive evaluation of the query: every listed variable is
/// restricted to the paired identity set, unlisted variables scan their full
/// extent.
#[derive(Clone, Debug)]
pub struct Rotation {
    /// Per-variable identity restrictions.
    pub restrictions: Vec<(String, Arc<BTreeSet<Oid>>)>,
}

/// Compute the rotation schedule for a query over a mutated source.
///
/// `slots` lists the query's scans in any fixed order, `delta` is the net
/// effect of the applied batch (see
/// [`Instance::apply_batch`](wol_model::Instance::apply_batch)), and
/// `instance` is the source *after* the batch (its extents provide the "old"
/// sets). Returns one rotation per slot whose class has changed identities;
/// an empty schedule means the batch cannot add rows to this query.
///
/// The union of the rotations' outputs is exactly the set of rows binding at
/// least one changed identity, each produced by exactly one rotation.
pub fn delta_rotations(slots: &[Slot], delta: &BatchDelta, instance: &Instance) -> Vec<Rotation> {
    // Changed (Δ) and old (extent ∖ Δ) sets per distinct class, shared
    // across rotations.
    let mut changed: Vec<Option<Arc<BTreeSet<Oid>>>> = Vec::with_capacity(slots.len());
    let mut old: Vec<Option<Arc<BTreeSet<Oid>>>> = Vec::with_capacity(slots.len());
    for slot in slots {
        match delta.class(&slot.class) {
            Some(class_delta) if !class_delta.changed().is_empty() => {
                let delta_set = class_delta.changed();
                let survivors: BTreeSet<Oid> = instance
                    .extent(&slot.class)
                    .filter(|oid| !delta_set.contains(oid))
                    .cloned()
                    .collect();
                changed.push(Some(Arc::new(delta_set)));
                old.push(Some(Arc::new(survivors)));
            }
            _ => {
                changed.push(None);
                old.push(None);
            }
        }
    }
    let mut rotations = Vec::new();
    for (i, slot) in slots.iter().enumerate() {
        let Some(delta_set) = &changed[i] else {
            continue;
        };
        let mut restrictions = vec![(slot.var.clone(), Arc::clone(delta_set))];
        for (j, later) in slots.iter().enumerate().skip(i + 1) {
            if let Some(survivors) = &old[j] {
                restrictions.push((later.var.clone(), Arc::clone(survivors)));
            }
        }
        rotations.push(Rotation { restrictions });
    }
    rotations
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_model::{MutationBatch, Value};

    fn obj(n: i64) -> Value {
        Value::record([("n", Value::int(n))])
    }

    /// Enumerate the cross product of the slots' restricted extents for one
    /// rotation — a stand-in for plan evaluation, since rotations are
    /// plan-agnostic.
    fn enumerate(slots: &[Slot], rotation: &Rotation, instance: &Instance) -> Vec<Vec<Oid>> {
        let mut rows: Vec<Vec<Oid>> = vec![vec![]];
        for slot in slots {
            let keep = rotation
                .restrictions
                .iter()
                .find(|(var, _)| *var == slot.var)
                .map(|(_, set)| Arc::clone(set));
            let extent: Vec<Oid> = instance
                .extent(&slot.class)
                .filter(|oid| keep.as_ref().is_none_or(|k| k.contains(oid)))
                .cloned()
                .collect();
            rows = rows
                .into_iter()
                .flat_map(|row| {
                    extent.iter().map(move |oid| {
                        let mut next = row.clone();
                        next.push(oid.clone());
                        next
                    })
                })
                .collect();
        }
        rows
    }

    #[test]
    fn rotations_partition_the_new_rows() {
        let a = ClassName::new("A");
        let b = ClassName::new("B");
        let mut inst = Instance::new("src");
        for n in 0..3 {
            inst.insert_fresh(&a, obj(n));
            inst.insert_fresh(&b, obj(n));
        }
        let old_a: BTreeSet<Oid> = inst.extent(&a).cloned().collect();
        let old_b: BTreeSet<Oid> = inst.extent(&b).cloned().collect();
        let batch = MutationBatch::new()
            .insert(a.clone(), obj(10))
            .insert(b.clone(), obj(11))
            .insert(b.clone(), obj(12));
        let delta = inst.apply_batch(&batch).unwrap();

        let slots = [Slot::new("X", a.clone()), Slot::new("Y", b.clone())];
        let rotations = delta_rotations(&slots, &delta, &inst);
        assert_eq!(rotations.len(), 2);

        // Every pair with at least one new identity, exactly once.
        let mut produced: Vec<Vec<Oid>> = rotations
            .iter()
            .flat_map(|r| enumerate(&slots, r, &inst))
            .collect();
        let total = produced.len();
        produced.sort();
        produced.dedup();
        assert_eq!(produced.len(), total, "rotations must not overlap");
        let expected: Vec<Vec<Oid>> = inst
            .extent(&a)
            .flat_map(|x| inst.extent(&b).map(move |y| vec![x.clone(), y.clone()]))
            .filter(|row| !old_a.contains(&row[0]) || !old_b.contains(&row[1]))
            .collect();
        let mut expected_sorted = expected;
        expected_sorted.sort();
        assert_eq!(produced, expected_sorted);
    }

    #[test]
    fn updates_count_as_changed_and_removed_identities_never_appear() {
        let a = ClassName::new("A");
        let mut inst = Instance::new("src");
        let keep = inst.insert_fresh(&a, obj(0));
        let upd = inst.insert_fresh(&a, obj(1));
        let gone = inst.insert_fresh(&a, obj(2));
        let batch = MutationBatch::new()
            .update(upd.clone(), obj(100))
            .remove(gone.clone());
        let delta = inst.apply_batch(&batch).unwrap();

        let slots = [Slot::new("X", a.clone())];
        let rotations = delta_rotations(&slots, &delta, &inst);
        assert_eq!(rotations.len(), 1);
        let rows = enumerate(&slots, &rotations[0], &inst);
        // Only the updated identity is re-derived; the untouched one is old
        // and the removed one is no longer in the extent.
        assert_eq!(rows, vec![vec![upd.clone()]]);
        assert!(!rows.iter().any(|r| r[0] == keep || r[0] == gone));
    }

    #[test]
    fn untouched_classes_produce_no_rotations() {
        let a = ClassName::new("A");
        let b = ClassName::new("B");
        let mut inst = Instance::new("src");
        inst.insert_fresh(&a, obj(0));
        inst.insert_fresh(&b, obj(1));
        let batch = MutationBatch::new().insert(b.clone(), obj(2));
        let delta = inst.apply_batch(&batch).unwrap();
        // A query scanning only A is unaffected.
        let slots = [Slot::new("X", a.clone())];
        assert!(delta_rotations(&slots, &delta, &inst).is_empty());
        // A removal-only batch adds nothing either.
        let victim = inst.extent(&b).next().cloned().unwrap();
        let batch = MutationBatch::new().remove(victim);
        let delta = inst.apply_batch(&batch).unwrap();
        let slots = [Slot::new("Y", b.clone())];
        assert!(delta_rotations(&slots, &delta, &inst).is_empty());
    }
}
