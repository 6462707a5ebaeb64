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
//! * the pivot slot *i* scans [`ScanRestriction::Only`] its changed set Δᵢ
//!   (inserted ∪ updated),
//! * every later slot *j > i* whose class changed scans
//!   [`ScanRestriction::Except`] Δⱼ: the part of its extent the batch left
//!   as it was, and
//! * earlier slots *j < i* are unrestricted.
//!
//! Each new row has a unique last slot binding a changed identity, so the
//! rotations partition the new rows: evaluating the query once per rotation
//! and taking the union visits every new row exactly once and no old row at
//! all. The schedule is built from the delta alone and never reads an
//! extent. Rows that must *disappear* are not this module's concern — the
//! maintainer drops them by identity (the row's key, its tuple of scanned
//! identities) using
//! [`ClassDelta::stale`](wol_model::ClassDelta::stale) before adding the
//! rotation output.

use std::sync::Arc;

use wol_model::{BatchDelta, ClassName, ScanRestriction, Var};

/// One scanned variable of a query. The maintainer lists a query's slots in
/// variable-name order, the order of its row key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slot {
    /// The row variable the scan binds.
    pub var: Var,
    /// The class whose extent it scans.
    pub class: ClassName,
}

impl Slot {
    /// Convenience constructor.
    pub fn new(var: impl Into<Var>, class: impl Into<ClassName>) -> Slot {
        Slot {
            var: var.into(),
            class: class.into(),
        }
    }
}

/// One semi-naive evaluation of the query: every listed variable's scan is
/// narrowed by the paired restriction, unlisted variables scan their full
/// extent.
#[derive(Clone, Debug)]
pub struct Rotation {
    /// Per-variable scan restrictions.
    pub restrictions: Vec<(Var, ScanRestriction)>,
}

/// Compute the rotation schedule for a query over a mutated source.
///
/// `slots` lists the query's scans in any fixed order, and `delta` is the
/// net effect of the applied batch (see
/// [`Instance::apply_batch`](wol_model::Instance::apply_batch)), to be
/// evaluated against the source *after* the batch. Returns one rotation per
/// slot whose class has changed identities; an empty schedule means the
/// batch cannot add rows to this query.
///
/// The union of the rotations' outputs is exactly the set of rows binding at
/// least one changed identity, each produced by exactly one rotation.
pub fn delta_rotations(slots: &[Slot], delta: &BatchDelta) -> Vec<Rotation> {
    // Each slot's changed set Δ, shared by every rotation that names it.
    let changed: Vec<Option<Arc<_>>> = slots
        .iter()
        .map(|slot| {
            let changed = delta.class(&slot.class)?.changed();
            (!changed.is_empty()).then(|| Arc::new(changed))
        })
        .collect();
    let mut rotations = Vec::new();
    for (i, slot) in slots.iter().enumerate() {
        let Some(pivot) = &changed[i] else {
            continue;
        };
        let mut restrictions = vec![(slot.var, ScanRestriction::Only(Arc::clone(pivot)))];
        for (later, delta) in slots.iter().zip(&changed).skip(i + 1) {
            if let Some(delta) = delta {
                let except = ScanRestriction::Except(Arc::clone(delta));
                restrictions.push((later.var, except));
            }
        }
        rotations.push(Rotation { restrictions });
    }
    rotations
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wol_model::{Instance, MutationBatch, Oid, Value};

    fn obj(n: i64) -> Value {
        Value::record([("n", Value::int(n))])
    }

    /// Enumerate the cross product of the slots' restricted scans for one
    /// rotation — a stand-in for plan evaluation, since rotations are
    /// plan-agnostic. An `Only` scan visits its set and never the extent,
    /// as the executor's does; an `Except` scan walks the extent.
    fn enumerate(slots: &[Slot], rotation: &Rotation, instance: &Instance) -> Vec<Vec<Oid>> {
        let mut rows: Vec<Vec<Oid>> = vec![vec![]];
        for slot in slots {
            let restriction = rotation
                .restrictions
                .iter()
                .find(|(var, _)| *var == slot.var)
                .map(|(_, restriction)| restriction);
            let scanned: Vec<Oid> = match restriction {
                Some(ScanRestriction::Only(delta)) => (delta.iter())
                    .filter(|oid| instance.contains(oid))
                    .cloned()
                    .collect(),
                _ => (instance.extent(&slot.class))
                    .filter(|oid| restriction.is_none_or(|r| r.admits(oid)))
                    .cloned()
                    .collect(),
            };
            rows = rows
                .into_iter()
                .flat_map(|row| {
                    scanned.iter().map(move |oid| {
                        let mut next = row.clone();
                        next.push(oid.clone());
                        next
                    })
                })
                .collect();
        }
        rows
    }

    /// Every row of the cross product over the post-batch extents that binds
    /// at least one identity outside `old` (the pre-batch extents minus the
    /// updated identities), sorted; and the rotations' rows, sorted, after
    /// checking that no row is produced twice.
    fn new_rows_and_rotation_rows(
        slots: &[Slot],
        delta: &BatchDelta,
        old: &BTreeSet<Oid>,
        inst: &Instance,
    ) -> (Vec<Vec<Oid>>, Vec<Vec<Oid>>) {
        let all = enumerate(
            slots,
            &Rotation {
                restrictions: vec![],
            },
            inst,
        );
        let mut expected: Vec<Vec<Oid>> = (all.into_iter())
            .filter(|row| row.iter().any(|oid| !old.contains(oid)))
            .collect();
        expected.sort();
        let mut produced: Vec<Vec<Oid>> = delta_rotations(slots, delta)
            .iter()
            .flat_map(|r| enumerate(slots, r, inst))
            .collect();
        let total = produced.len();
        produced.sort();
        produced.dedup();
        assert_eq!(produced.len(), total, "rotations must not overlap");
        (expected, produced)
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
        let old: BTreeSet<Oid> = inst.extent(&a).chain(inst.extent(&b)).cloned().collect();
        let batch = MutationBatch::new()
            .insert(a.clone(), obj(10))
            .insert(b.clone(), obj(11))
            .insert(b.clone(), obj(12));
        let delta = inst.apply_batch(&batch).unwrap();

        let slots = [Slot::new("X", a.clone()), Slot::new("Y", b.clone())];
        let rotations = delta_rotations(&slots, &delta);
        // The pivot scans Only its Δ; a later changed slot scans Except its
        // Δ, the very set its own rotation pins; an earlier one is free.
        let delta_a = Arc::new(delta.class(&a).unwrap().changed());
        let delta_b = Arc::new(delta.class(&b).unwrap().changed());
        let shapes: Vec<Vec<(Var, ScanRestriction)>> =
            rotations.iter().map(|r| r.restrictions.clone()).collect();
        assert_eq!(
            shapes,
            vec![
                vec![
                    (Var::new("X"), ScanRestriction::Only(delta_a)),
                    (Var::new("Y"), ScanRestriction::Except(delta_b.clone())),
                ],
                vec![(Var::new("Y"), ScanRestriction::Only(delta_b))],
            ]
        );
        // Every pair with at least one new identity, exactly once.
        let (expected, produced) = new_rows_and_rotation_rows(&slots, &delta, &old, &inst);
        assert_eq!(expected.len(), 4 * 5 - 3 * 3);
        assert_eq!(produced, expected);
    }

    /// Three slots, two of them over one class, under a batch that inserts,
    /// updates and removes in both classes: the rotations still produce
    /// every row binding an inserted or updated identity exactly once, and
    /// no row binding a removed one.
    #[test]
    fn rotations_partition_the_new_rows_over_repeated_classes() {
        let a = ClassName::new("A");
        let b = ClassName::new("B");
        let mut inst = Instance::new("src");
        let objects: Vec<Oid> = (0..4)
            .flat_map(|n| [inst.insert_fresh(&a, obj(n)), inst.insert_fresh(&b, obj(n))])
            .collect();
        let batch = MutationBatch::new()
            .update(objects[0].clone(), obj(100))
            .remove(objects[2].clone())
            .insert(a.clone(), obj(10))
            .update(objects[3].clone(), obj(101))
            .remove(objects[5].clone())
            .insert(b.clone(), obj(11));
        let delta = inst.apply_batch(&batch).unwrap();
        let updated = [&objects[0], &objects[3]];
        let old: BTreeSet<Oid> = (objects.iter())
            .filter(|oid| !updated.contains(oid))
            .cloned()
            .collect();
        let slots = [
            Slot::new("X", a.clone()),
            Slot::new("Y", b.clone()),
            Slot::new("Z", a.clone()),
        ];
        assert_eq!(delta_rotations(&slots, &delta).len(), 3);
        let (expected, produced) = new_rows_and_rotation_rows(&slots, &delta, &old, &inst);
        // 4 × 4 × 4 rows after the batch; 2 × 2 × 2 bind nothing changed.
        assert_eq!(expected.len(), 64 - 8);
        assert_eq!(produced, expected);
        let removed = [&objects[2], &objects[5]];
        assert!(!produced.iter().flatten().any(|oid| removed.contains(&oid)));
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
        let rotations = delta_rotations(&slots, &delta);
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
        assert!(delta_rotations(&slots, &delta).is_empty());
        // A removal-only batch adds nothing either.
        let victim = inst.extent(&b).next().cloned().unwrap();
        let batch = MutationBatch::new().remove(victim);
        let delta = inst.apply_batch(&batch).unwrap();
        let slots = [Slot::new("Y", b.clone())];
        assert!(delta_rotations(&slots, &delta).is_empty());
    }
}
