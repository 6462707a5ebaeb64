//! Differential test of the versioned object store behind `Instance`
//! (`wol_model::store`) against the layout it replaced: a plain
//! `BTreeMap<Oid, Value>` plus the set of declared classes.
//!
//! Random interleavings of every mutating entry point run against both; after
//! every step every read the rest of the workspace relies on — extents,
//! objects, whole-instance iteration order, sizes, declared classes — must
//! agree, and every *older version* (a clone taken earlier and left alone)
//! must still read exactly as it did when it was taken. Identity ranges span
//! several store chunks, arrive out of order, and classes are drained to
//! empty, so chunk splits, merges and removals all occur.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use wol_model::{ClassName, Instance, Oid, Value};

/// The replaced layout, with `Instance`'s documented semantics.
#[derive(Clone, Debug, Default, PartialEq)]
struct Model {
    objects: BTreeMap<Oid, Value>,
    declared: BTreeSet<ClassName>,
    counters: BTreeMap<ClassName, u64>,
}

impl Model {
    fn insert(&mut self, oid: Oid, value: Value) -> bool {
        if self.objects.contains_key(&oid) {
            return false;
        }
        self.declared.insert(oid.class().clone());
        self.objects.insert(oid, value);
        true
    }

    fn insert_fresh(&mut self, class: &ClassName, value: Value) -> Oid {
        let counter = self.counters.entry(class.clone()).or_insert(0);
        let oid = Oid::new(class.clone(), *counter);
        *counter += 1;
        self.declared.insert(class.clone());
        self.objects.insert(oid.clone(), value);
        oid
    }

    fn extent(&self, class: &ClassName) -> Vec<(&Oid, &Value)> {
        self.objects
            .iter()
            .filter(|(oid, _)| oid.class() == class)
            .collect()
    }

    /// What `deep_eq_report` compares: objects and counters, not which empty
    /// classes are declared.
    fn deep_eq(&self, other: &Model) -> bool {
        self.objects == other.objects && self.counters == other.counters
    }
}

fn classes() -> [ClassName; 3] {
    [
        ClassName::new("Alpha"),
        ClassName::new("Beta"),
        ClassName::new("Gamma"),
    ]
}

/// Every read, instance against model.
fn agree(instance: &Instance, model: &Model) -> Result<(), String> {
    let all: Vec<_> = instance.all_objects().collect();
    let expected: Vec<_> = model.objects.iter().collect();
    prop_assert_eq!(all, expected);
    prop_assert_eq!(instance.len(), model.objects.len());
    prop_assert_eq!(instance.is_empty(), model.objects.is_empty());
    let declared: Vec<ClassName> = model.declared.iter().cloned().collect();
    prop_assert_eq!(instance.populated_classes(), declared);
    for class in &classes() {
        let expected = model.extent(class);
        prop_assert_eq!(instance.extent_size(class), expected.len());
        let oids: Vec<&Oid> = instance.extent(class).collect();
        let expected_oids: Vec<&Oid> = expected.iter().map(|(oid, _)| *oid).collect();
        prop_assert_eq!(oids, expected_oids);
        let objects: Vec<_> = instance.objects(class).collect();
        prop_assert_eq!(objects, expected);
    }
    for (oid, value) in &model.objects {
        prop_assert_eq!(instance.value(oid), Some(value));
    }
    let counters: BTreeMap<ClassName, u64> = instance
        .oid_counters()
        .map(|(class, n)| (class.clone(), n))
        .collect();
    prop_assert_eq!(&counters, &model.counters);
    Ok(())
}

/// Equality and the divergence report, instance pair against model pair.
fn equality_agrees(a: &(Instance, Model), b: &(Instance, Model)) -> Result<(), String> {
    prop_assert_eq!(a.0 == b.0, a.1 == b.1);
    let report = a.0.deep_eq_report(&b.0);
    prop_assert!(
        report.is_none() == a.1.deep_eq(&b.1),
        "deep_eq_report disagrees with the model: {:?}",
        report
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn versioned_store_matches_the_btreemap_layout(
        words in proptest::collection::vec(0u64..u64::MAX, 50..400),
        preload in 0u64..300,
        id_space in 8u64..600,
    ) {
        let classes = classes();
        let mut current = (Instance::new("S"), Model::default());
        // An ascending preload makes full chunks for the stream to split,
        // thin out and merge.
        let rows = (0..preload)
            .map(|id| (Oid::new(classes[0].clone(), id), Value::int(id as i64)))
            .collect::<Vec<_>>();
        for (oid, value) in &rows {
            current.1.insert(oid.clone(), value.clone());
        }
        current.0.bulk_insert(&classes[0], rows).map_err(|e| e.to_string())?;
        // Versions taken along the way and never touched again.
        let mut held: Vec<(Instance, Model)> = Vec::new();

        for (step, word) in words.iter().enumerate() {
            let (instance, model) = (&mut current.0, &mut current.1);
            // Most traffic goes to one class so it grows past several chunks.
            let class = &classes[[0, 0, 0, 1, 2][(word >> 8) as usize % 5]];
            let oid = Oid::new(class.clone(), (word >> 16) % id_space);
            let value = Value::record([("n", Value::int((word >> 40) as i64))]);
            match word % 100 {
                0..=39 => {
                    let ok = instance.insert(oid.clone(), value.clone()).is_ok();
                    prop_assert_eq!(ok, model.insert(oid, value));
                }
                40..=49 => {
                    let minted = instance.insert_fresh(class, value.clone());
                    prop_assert_eq!(minted, model.insert_fresh(class, value));
                }
                50..=59 => {
                    let ok = instance.update(&oid, value.clone()).is_ok();
                    prop_assert_eq!(ok, model.objects.contains_key(&oid));
                    if ok {
                        model.objects.insert(oid, value);
                    }
                }
                60..=84 => {
                    prop_assert_eq!(instance.remove(&oid), model.objects.remove(&oid));
                }
                85..=88 => {
                    // A batch of scattered identities, sometimes colliding
                    // with the instance or with itself: all or nothing.
                    let batch: Vec<(Oid, Value)> = (0..8u64)
                        .map(|k| {
                            let id = (word >> 16).wrapping_mul(k * 2 + 1) % id_space;
                            (Oid::new(class.clone(), id), Value::int(k as i64))
                        })
                        .collect();
                    let ids: BTreeSet<&Oid> = batch.iter().map(|(oid, _)| oid).collect();
                    let clean = ids.len() == batch.len()
                        && batch.iter().all(|(oid, _)| !model.objects.contains_key(oid));
                    prop_assert_eq!(instance.bulk_insert(class, batch.clone()).is_ok(), clean);
                    if clean {
                        for (oid, value) in batch {
                            model.insert(oid, value);
                        }
                    }
                }
                89..=90 => {
                    instance.ensure_class(class);
                    model.declared.insert(class.clone());
                }
                91..=92 => {
                    // Drain the class to empty, from the middle outwards; it
                    // stays declared.
                    let mut oids: Vec<Oid> = instance.extent(class).cloned().collect();
                    let mid = oids.len() / 2;
                    oids.rotate_left(mid);
                    for oid in oids {
                        prop_assert_eq!(instance.remove(&oid), model.objects.remove(&oid));
                    }
                    prop_assert_eq!(instance.extent_size(class), 0);
                }
                93..=96 => held.push(current.clone()),
                _ => {
                    // Carry on from a clone; the original becomes a held
                    // version its former clone must no longer affect.
                    let next = current.clone();
                    held.push(std::mem::replace(&mut current, next));
                }
            }
            agree(&current.0, &current.1).map_err(|e| format!("step {step}: {e}"))?;
        }

        for version in &held {
            agree(&version.0, &version.1).map_err(|e| format!("held version: {e}"))?;
            equality_agrees(version, &current)?;
        }
        for pair in held.windows(2) {
            equality_agrees(&pair[0], &pair[1])?;
        }
        // A rebuild from the model's contents is equal whatever chunk layout
        // the stream left behind.
        let mut rebuilt = Instance::new("S");
        for class in &current.1.declared {
            rebuilt.ensure_class(class);
        }
        for (oid, value) in &current.1.objects {
            rebuilt.insert(oid.clone(), value.clone()).map_err(|e| e.to_string())?;
        }
        for (class, n) in &current.1.counters {
            rebuilt.restore_oid_counter(class, *n);
        }
        prop_assert_eq!(&rebuilt, &current.0);
        prop_assert_eq!(rebuilt.deep_eq_report(&current.0), None);
    }
}
