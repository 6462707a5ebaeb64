//! E11: sustained mutation traffic over the genome warehouse.
//!
//! The maintenance experiments need *streams* of mutation batches, not single
//! instances: a deterministic, seeded generator that keeps producing
//! well-formed [`MutationBatch`]es against a [`genome`](crate::genome)-shaped
//! source as it evolves. [`TrafficGen`] owns a shadow copy of the source that
//! it advances batch by batch, so every generated operation is valid against
//! the state the consumer's pipeline is in when the batch arrives (victims of
//! updates and removals exist; duplicate-key inserts duplicate a *live*
//! object).
//!
//! The operation mix is weighted ([`TrafficWeights`]); two presets matter:
//!
//! * [`TrafficWeights::in_place`] — inserts and position updates only:
//!   no churn, no sweep of a minted key; used by the E11 bench's
//!   steady-state phase and the perf-regression guard.
//! * [`TrafficWeights::mixed`] — adds duplicate Skolem keys (two source
//!   markers with the same name feeding one warehouse object), attribute
//!   updates on referenced clones (foreign-read churn), removals and renames
//!   of minted keys (sweeps of cached rows); used by the differential and
//!   soak suites to hit every maintenance path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wol_model::{ClassName, Instance, MutationBatch, Oid, Value};

/// Relative operation weights; a weight of zero disables the operation.
#[derive(Clone, Copy, Debug)]
pub struct TrafficWeights {
    /// Insert a fresh `CloneS` with a new name.
    pub insert_clone: u32,
    /// Insert a fresh `MarkerS` with a new name (maybe position, clone ref).
    pub insert_marker: u32,
    /// Re-insert an existing `MarkerS` value verbatim: a duplicate Skolem
    /// key whose contributions agree with the original's.
    pub duplicate_marker: u32,
    /// Update an existing marker's `position`.
    pub update_position: u32,
    /// Update an existing clone's `length` (a foreign read of `G7`).
    pub update_clone: u32,
    /// Remove an existing marker (displaces its warehouse mint).
    pub remove_marker: u32,
    /// Rename an existing clone (moves its Skolem key).
    pub rename_clone: u32,
}

impl TrafficWeights {
    /// Traffic an incremental maintainer absorbs in place.
    pub fn in_place() -> TrafficWeights {
        TrafficWeights {
            insert_clone: 1,
            insert_marker: 4,
            duplicate_marker: 0,
            update_position: 5,
            update_clone: 0,
            remove_marker: 0,
            rename_clone: 0,
        }
    }

    /// Every maintenance path: churn, sweeps and duplicate keys.
    pub fn mixed() -> TrafficWeights {
        TrafficWeights {
            insert_clone: 2,
            insert_marker: 6,
            duplicate_marker: 1,
            update_position: 6,
            update_clone: 2,
            remove_marker: 1,
            rename_clone: 1,
        }
    }

    fn total(&self) -> u32 {
        self.insert_clone
            + self.insert_marker
            + self.duplicate_marker
            + self.update_position
            + self.update_clone
            + self.remove_marker
            + self.rename_clone
    }
}

/// Deterministic mutation-stream generator over a genome-shaped source.
pub struct TrafficGen {
    shadow: Instance,
    rng: StdRng,
    weights: TrafficWeights,
    fresh: u64,
    /// Seed-derived tag embedded in generated names, so streams with
    /// distinct seeds over the same source never collide on a Skolem key.
    tag: String,
    clone_s: ClassName,
    marker_s: ClassName,
}

impl TrafficGen {
    /// Start a stream against (a shadow copy of) `source`. The same
    /// `(source, seed, weights)` triple always yields the same batches.
    pub fn new(source: &Instance, seed: u64, weights: TrafficWeights) -> TrafficGen {
        assert!(weights.total() > 0, "all traffic weights are zero");
        TrafficGen {
            shadow: source.clone(),
            rng: StdRng::seed_from_u64(seed),
            weights,
            fresh: 0,
            tag: format!("{seed:x}"),
            clone_s: ClassName::new("CloneS"),
            marker_s: ClassName::new("MarkerS"),
        }
    }

    /// The stream's view of the source after every batch produced so far.
    pub fn shadow(&self) -> &Instance {
        &self.shadow
    }

    /// Produce the next batch of up to `ops` operations and advance the
    /// shadow past it. Operations touching existing objects pick their
    /// victims deterministically; one object (and one marker *name* — the
    /// warehouse key shared by duplicate markers) is touched at most once
    /// per batch, so every batch validates against the pre-batch state and
    /// duplicate-keyed markers always keep agreeing attributes.
    pub fn next_batch(&mut self, ops: usize) -> MutationBatch {
        let mut batch = MutationBatch::new();
        let mut used = BatchGuard::default();
        for _ in 0..ops {
            batch = self.push_op(batch, &mut used);
        }
        self.shadow
            .apply_batch(&batch)
            .expect("generated batch applies to its own shadow");
        batch
    }

    fn push_op(&mut self, batch: MutationBatch, used: &mut BatchGuard) -> MutationBatch {
        let w = self.weights;
        let mut roll = self.rng.gen_range(0..w.total());
        let mut hit = |weight: u32| {
            if roll < weight {
                true
            } else {
                roll -= weight;
                false
            }
        };
        if hit(w.insert_clone) {
            let n = self.next_fresh();
            let mut fields = vec![("name", Value::from(format!("tCln-{}-{n}", self.tag)))];
            if self.rng.gen_bool(0.6) {
                fields.push(("length", Value::int(self.rng.gen_range(10_000..200_000))));
            }
            return batch.insert(self.clone_s.clone(), Value::record(fields));
        }
        if hit(w.insert_marker) {
            let n = self.next_fresh();
            let mut fields = vec![("name", Value::from(format!("tMrk-{}-{n}", self.tag)))];
            if self.rng.gen_bool(0.6) {
                fields.push(("position", Value::int(self.rng.gen_range(0..50_000_000))));
            }
            if self.rng.gen_bool(0.5) {
                if let Some(clone) = self.pick(&self.clone_s.clone(), used) {
                    fields.push(("clone", Value::Oid(clone)));
                }
            }
            return batch.insert(self.marker_s.clone(), Value::record(fields));
        }
        if hit(w.duplicate_marker) {
            if let Some((name, group)) = self.pick_marker_group(used) {
                let value = self.shadow.value(&group[0]).expect("picked live").clone();
                // Guard the name: a later op in this batch must not update
                // one copy of the key without the other, or the duplicates
                // would contribute conflicting attributes.
                used.marker_names.push(name);
                used.oids.extend(group);
                return batch.insert(self.marker_s.clone(), value);
            }
            return batch;
        }
        if hit(w.update_position) {
            if let Some((name, group)) = self.pick_marker_group(used) {
                // Duplicate-keyed markers feed one warehouse object, so a
                // position update must move every holder of the name alike.
                let position = Value::int(self.rng.gen_range(0..50_000_000));
                let mut updated = batch;
                for oid in &group {
                    let mut value = self.shadow.value(oid).expect("picked live").clone();
                    if let Value::Record(fields) = &mut value {
                        fields.insert("position".into(), position.clone());
                    }
                    updated = updated.update(oid.clone(), value);
                }
                used.marker_names.push(name);
                used.oids.extend(group);
                return updated;
            }
            return batch;
        }
        if hit(w.update_clone) {
            if let Some(victim) = self.pick_unused(&self.clone_s.clone(), used) {
                let mut value = self.shadow.value(&victim).expect("picked live").clone();
                if let Value::Record(fields) = &mut value {
                    fields.insert(
                        "length".into(),
                        Value::int(self.rng.gen_range(10_000..200_000)),
                    );
                }
                used.oids.push(victim.clone());
                return batch.update(victim, value);
            }
            return batch;
        }
        if hit(w.remove_marker) {
            // Removing one holder of a duplicated name is safe (the
            // survivors still agree); the name guard only has to prevent a
            // same-batch divergence of the remaining copies.
            if let Some((name, group)) = self.pick_marker_group(used) {
                let victim = group[0].clone();
                used.marker_names.push(name);
                used.oids.push(victim.clone());
                return batch.remove(victim);
            }
            return batch;
        }
        // Rename a clone: move its Skolem key.
        if let Some(victim) = self.pick_unused(&self.clone_s.clone(), used) {
            let n = self.next_fresh();
            let mut value = self.shadow.value(&victim).expect("picked live").clone();
            if let Value::Record(fields) = &mut value {
                fields.insert("name".into(), Value::from(format!("tRen-{}-{n}", self.tag)));
            }
            used.oids.push(victim.clone());
            return batch.update(victim, value);
        }
        batch
    }

    fn next_fresh(&mut self) -> u64 {
        self.fresh += 1;
        self.fresh
    }

    /// A deterministic pick from the class extent, victims already mutated
    /// this batch included (safe for reads: clone refs).
    fn pick(&mut self, class: &ClassName, _used: &BatchGuard) -> Option<Oid> {
        let count = self.shadow.extent_size(class);
        if count == 0 {
            return None;
        }
        let index = self.rng.gen_range(0..count);
        self.shadow.extent(class).nth(index).cloned()
    }

    /// A deterministic pick excluding objects already mutated this batch, so
    /// the batch never updates or removes the same victim twice.
    fn pick_unused(&mut self, class: &ClassName, used: &BatchGuard) -> Option<Oid> {
        let candidates: Vec<&Oid> = self
            .shadow
            .extent(class)
            .filter(|oid| !used.oids.contains(oid))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let index = self.rng.gen_range(0..candidates.len());
        Some(candidates[index].clone())
    }

    /// Pick an untouched marker *name* and return every live holder of it.
    /// Duplicate-keyed markers share a warehouse object, so mutations are
    /// planned per name group, never per lone copy.
    fn pick_marker_group(&mut self, used: &BatchGuard) -> Option<(String, Vec<Oid>)> {
        let class = self.marker_s.clone();
        let named: Vec<(String, Oid)> = self
            .shadow
            .objects(&class)
            .filter_map(|(oid, value)| match value.project("name") {
                Some(Value::Str(name)) => Some((name.clone(), oid.clone())),
                _ => None,
            })
            .collect();
        let candidates: Vec<&(String, Oid)> = named
            .iter()
            .filter(|(name, oid)| !used.marker_names.contains(name) && !used.oids.contains(oid))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let (name, _) = candidates[self.rng.gen_range(0..candidates.len())].clone();
        let group: Vec<Oid> = named
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, oid)| oid.clone())
            .collect();
        Some((name, group))
    }
}

/// Per-batch mutation guards: objects touched, and marker names whose copies
/// must not diverge within the batch.
#[derive(Default)]
struct BatchGuard {
    oids: Vec<Oid>,
    marker_names: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{self, GenomeParams};

    #[test]
    fn streams_are_deterministic() {
        let source = genome::generate_source(&GenomeParams::default());
        let mut a = TrafficGen::new(&source, 7, TrafficWeights::mixed());
        let mut b = TrafficGen::new(&source, 7, TrafficWeights::mixed());
        for _ in 0..20 {
            assert_eq!(a.next_batch(5).ops, b.next_batch(5).ops);
        }
        assert!(a.shadow().deep_eq_report(b.shadow()).is_none());
    }

    #[test]
    fn batches_apply_cleanly_to_an_independent_copy() {
        let source = genome::generate_source(&GenomeParams::default());
        let mut external = source.clone();
        let mut gen = TrafficGen::new(&source, 3, TrafficWeights::mixed());
        for _ in 0..50 {
            let batch = gen.next_batch(4);
            external.apply_batch(&batch).expect("batch is well-formed");
        }
        assert!(external.deep_eq_report(gen.shadow()).is_none());
    }

    #[test]
    fn in_place_preset_never_stales_clone_keys() {
        let source = genome::generate_source(&GenomeParams::default());
        let clone_s = ClassName::new("CloneS");
        let before: Vec<Oid> = source.extent(&clone_s).cloned().collect();
        let mut gen = TrafficGen::new(&source, 11, TrafficWeights::in_place());
        for _ in 0..30 {
            gen.next_batch(6);
        }
        // Every pre-existing clone survives with its original value: the
        // in-place preset only appends and touches marker positions.
        for oid in &before {
            assert_eq!(gen.shadow().value(oid), source.value(oid));
        }
    }
}
