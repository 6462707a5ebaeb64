//! Concurrent front end for the standing pipeline: many readers, one
//! maintainer.
//!
//! [`PipelineService`] moves a [`MaterializedPipeline`] onto a dedicated
//! maintainer thread. Writers submit [`wol_model::MutationBatch`]es through a
//! request queue and block for the per-batch [`BatchReport`]; readers grab an
//! immutable snapshot (`Arc<Instance>`) that is swapped atomically after each
//! successful batch. Readers therefore always observe a target at a batch
//! boundary — never a half-repaired instance — and two reads from the same
//! snapshot are trivially consistent with each other.
//!
//! **Publishing costs the batch, not the target.** A published snapshot is a
//! *version* of the working target ([`Instance::snapshot`]): it shares every
//! chunk of objects and every index shard the batch did not touch, so taking
//! it is a pointer copy per class and per index, and a reader that holds on
//! to an old snapshot pins only the chunks the maintainer has replaced since.
//! Before each publish the maintainer *adopts* the attribute indexes readers
//! built on the outgoing snapshot: each is built once more on the working
//! target, maintained by its mutations from then on, and carried by every
//! later snapshot — a reader's first probe after a publish is a hash lookup,
//! and an index nobody probed is never built.
//!
//! Failure handling is deliberately loud: if the maintainer thread panics,
//! pending and future requests error immediately (the channel closes), and
//! [`PipelineService::shutdown`] re-raises the panic on the caller instead of
//! swallowing it.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;

use wol_model::{Instance, MutationBatch};

use crate::maintain::{BatchReport, MaterializedPipeline};
use crate::{MorphaseError, Result};

enum Request {
    Apply(MutationBatch, Sender<Result<BatchReport>>),
    /// Test hook: make the maintainer panic to exercise propagation.
    Panic,
    Shutdown(Sender<Box<MaterializedPipeline>>),
}

/// A [`MaterializedPipeline`] behind a maintainer thread and a snapshot cell.
pub struct PipelineService {
    tx: Option<Sender<Request>>,
    snapshot: Arc<RwLock<Arc<Instance>>>,
    handle: Option<JoinHandle<()>>,
}

/// The maintainer thread's loop: apply, publish, answer, until shutdown or
/// a closed channel.
///
/// # Panics
///
/// On [`Request::Panic`], the fault hook [`PipelineService::inject_panic`]
/// sends.
// The hook's panic is the behaviour under test: shutdown must re-raise it.
#[allow(clippy::panic)]
fn maintainer(
    mut pipeline: Box<MaterializedPipeline>,
    rx: Receiver<Request>,
    snapshot: Arc<RwLock<Arc<Instance>>>,
) {
    while let Ok(request) = rx.recv() {
        match request {
            Request::Apply(batch, reply) => {
                let result = pipeline.apply_batch(&batch);
                let stale = result.is_ok().then(|| publish(&pipeline, &snapshot));
                // A dropped requester is fine; the batch already applied.
                let _ = reply.send(result);
                // This may be the last reference to the chunks the batch
                // replaced: free them after the writer has its answer, and
                // with the snapshot lock long released.
                drop(stale);
            }
            Request::Panic => panic!("injected maintainer panic"),
            Request::Shutdown(reply) => {
                let _ = reply.send(pipeline);
                return;
            }
        }
    }
}

/// Swap a fresh version of the pipeline's target into the snapshot cell and
/// hand back the outgoing one. Indexes readers built on the outgoing version
/// are adopted by the working target first, so the fresh version (and every
/// later one) carries them.
fn publish(pipeline: &MaterializedPipeline, snapshot: &RwLock<Arc<Instance>>) -> Arc<Instance> {
    // The critical sections only clone or move an `Arc`, so a poisoned lock
    // still guards a valid snapshot: recover it rather than panic.
    let outgoing = Arc::clone(&snapshot.read().unwrap_or_else(PoisonError::into_inner));
    pipeline.target().adopt_attr_indexes(&outgoing);
    let fresh = Arc::new(pipeline.target().snapshot());
    let mut published = snapshot.write().unwrap_or_else(PoisonError::into_inner);
    std::mem::replace(&mut *published, fresh)
}

impl PipelineService {
    /// Stand the pipeline up behind a maintainer thread. The initial
    /// snapshot is the pipeline's current target.
    ///
    /// # Panics
    ///
    /// If the operating system refuses to spawn the maintainer thread.
    // `start` cannot return a `Result` (its signature is public and
    // relied on), and without the thread there is no service.
    #[allow(clippy::expect_used)]
    pub fn start(pipeline: MaterializedPipeline) -> PipelineService {
        let snapshot = Arc::new(RwLock::new(Arc::new(pipeline.target().snapshot())));
        let (tx, rx) = mpsc::channel();
        let handle = {
            let snapshot = Arc::clone(&snapshot);
            std::thread::Builder::new()
                .name("morphase-maintainer".into())
                .spawn(move || maintainer(Box::new(pipeline), rx, snapshot))
                .expect("spawn maintainer thread")
        };
        PipelineService {
            tx: Some(tx),
            snapshot,
            handle: Some(handle),
        }
    }

    /// The latest published target snapshot. Cheap: clones an `Arc` under a
    /// read lock. The snapshot is immutable and consistent at a batch
    /// boundary. A poisoned lock still holds the last published target
    /// (writers only ever move an `Arc` under it), so readers recover it.
    pub fn snapshot(&self) -> Arc<Instance> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Apply a batch on the maintainer thread and wait for its report.
    pub fn apply(&self, batch: MutationBatch) -> Result<BatchReport> {
        let gone = || MorphaseError::Execution("maintainer thread is gone".into());
        let tx = self.tx.as_ref().ok_or_else(gone)?;
        let (reply_tx, reply_rx) = mpsc::channel();
        tx.send(Request::Apply(batch, reply_tx))
            .map_err(|_| gone())?;
        reply_rx.recv().map_err(|_| gone())?
    }

    /// Test hook: make the maintainer thread panic. The next [`Self::apply`]
    /// errors and [`Self::shutdown`] re-raises the panic.
    #[doc(hidden)]
    pub fn inject_panic(&self) {
        if let Some(tx) = self.tx.as_ref() {
            let _ = tx.send(Request::Panic);
        }
    }

    /// Stop the maintainer and take the pipeline back. Re-raises the
    /// maintainer's panic if it died instead of shutting down cleanly.
    pub fn shutdown(mut self) -> Result<MaterializedPipeline> {
        let gone = || MorphaseError::Execution("maintainer thread is gone".into());
        let reply = self.tx.as_ref().and_then(|tx| {
            let (reply_tx, reply_rx) = mpsc::channel();
            tx.send(Request::Shutdown(reply_tx)).ok()?;
            Some(reply_rx)
        });
        // Drop the sender so a panicked maintainer's channel drains.
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        let pipeline = reply.and_then(|rx| rx.recv().ok()).ok_or_else(gone)?;
        Ok(*pipeline)
    }
}

impl Drop for PipelineService {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            // Closing the channel stops the maintainer; a panic payload is
            // intentionally swallowed here — `shutdown` is the loud path.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PipelineOptions;
    use wol_model::{ClassName, Value};
    use workloads::genome::{self, GenomeParams};

    fn service() -> PipelineService {
        let program = genome::program();
        let source = genome::generate_source(&GenomeParams::default());
        let pipeline =
            MaterializedPipeline::new(&program, vec![source], PipelineOptions::default()).unwrap();
        PipelineService::start(pipeline)
    }

    #[test]
    fn snapshots_advance_only_at_batch_boundaries() {
        let service = service();
        let before = service.snapshot();
        let report = service
            .apply(MutationBatch::new().insert(
                ClassName::new("CloneS"),
                Value::record([("name", Value::from("svc-clone"))]),
            ))
            .unwrap();
        assert!(report.rows_added > 0);
        let after = service.snapshot();
        assert!(!Arc::ptr_eq(&before, &after));
        // The old snapshot is still intact and readable.
        assert!(before.populated_classes().len() <= after.populated_classes().len());
        let pipeline = service.shutdown().unwrap();
        assert_eq!(pipeline.stats().batches, 1);
    }

    /// What a reader had to build on one published version is there, built,
    /// on the versions published after it — and an index no reader probed is
    /// never built, on the working target or on any version.
    #[test]
    fn reader_built_indexes_are_adopted_and_nothing_else_is_built() {
        let service = service();
        let (class, probed, unprobed) = (ClassName::new("CloneD"), "name", "length");
        let clone = |name: &str| {
            MutationBatch::new().insert(
                ClassName::new("CloneS"),
                Value::record([("name", Value::from(name))]),
            )
        };
        let first = service.snapshot();
        assert!(!first.has_attr_index(&class, probed));
        service.apply(clone("adopt-a")).unwrap();
        // The reader probes the *second* version: the maintainer sees that
        // only when it publishes the third.
        let second = service.snapshot();
        assert!(!second.has_attr_index(&class, probed));
        assert!(
            second
                .lookup_by_attr(&class, probed, &Value::from("adopt-a"))
                .len()
                == 1
        );
        service.apply(clone("adopt-b")).unwrap();
        let third = service.snapshot();
        assert!(third.has_attr_index(&class, probed));
        service.apply(clone("adopt-c")).unwrap();
        let fourth = service.snapshot();
        assert!(fourth.has_attr_index(&class, probed));
        // The carried index is maintained, not stale: it finds what was
        // inserted after it was adopted and still answers for the old.
        for (version, names) in [(&third, 2), (&fourth, 3)] {
            let found = ["adopt-a", "adopt-b", "adopt-c"]
                .iter()
                .filter(|name| {
                    version
                        .lookup_by_attr(&class, probed, &Value::from(**name))
                        .len()
                        == 1
                })
                .count();
            assert_eq!(found, names);
        }
        for version in [&first, &second, &third, &fourth] {
            assert!(!version.has_attr_index(&class, unprobed));
        }
        let pipeline = service.shutdown().unwrap();
        assert!(pipeline.target().has_attr_index(&class, probed));
        assert!(!pipeline.target().has_attr_index(&class, unprobed));
    }

    /// A panic while a writer holds the snapshot lock poisons it; readers
    /// still get the last published target and the maintainer still
    /// publishes.
    #[test]
    fn poisoned_snapshot_lock_still_serves_the_last_published_target() {
        let service = service();
        let before = service.snapshot();
        let cell = Arc::clone(&service.snapshot);
        let writer = std::thread::spawn(move || {
            let _held = cell.write().unwrap();
            panic!("injected panic while holding the snapshot write lock");
        });
        assert!(writer.join().is_err());
        assert!(service.snapshot.is_poisoned());
        assert!(Arc::ptr_eq(&before, &service.snapshot()));
        service
            .apply(MutationBatch::new().insert(
                ClassName::new("CloneS"),
                Value::record([("name", Value::from("after-poison"))]),
            ))
            .unwrap();
        assert!(!Arc::ptr_eq(&before, &service.snapshot()));
        service.shutdown().unwrap();
    }

    #[test]
    fn maintainer_panic_propagates_at_shutdown() {
        let service = service();
        service.inject_panic();
        // The apply after a panic errors rather than hanging.
        let err = service.apply(MutationBatch::new());
        assert!(err.is_err());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = service.shutdown();
        }));
        assert!(panicked.is_err(), "shutdown must re-raise the panic");
    }

    #[test]
    fn failed_batches_report_errors_to_the_submitter() {
        let service = service();
        let err = service
            .apply(MutationBatch::new().insert(ClassName::new("NoSuchClass"), Value::int(1)));
        assert!(err.is_err());
        let pipeline = service.shutdown().unwrap();
        assert!(!pipeline.is_poisoned(), "validation failures do not poison");
    }

    #[test]
    fn constraint_rejections_leave_the_service_healthy_and_the_snapshot_unmoved() {
        use crate::pipeline::BatchConstraintMode;
        use workloads::constrained::{self, ConstrainedParams};
        let program = constrained::program();
        let source = constrained::generate_source(&ConstrainedParams::default());
        let options = PipelineOptions {
            batch_constraints: BatchConstraintMode::Enforce,
            ..PipelineOptions::default()
        };
        let pipeline = MaterializedPipeline::new(&program, vec![source.clone()], options).unwrap();
        let mut gen = constrained::ConstrainedGen::new(&source, 2);
        let service = PipelineService::start(pipeline);
        let before = service.snapshot();
        let err = service.apply(gen.violating_batch()).unwrap_err();
        assert!(matches!(err, MorphaseError::Verification(_)));
        // No snapshot was published for the rejected batch.
        let after = service.snapshot();
        assert!(Arc::ptr_eq(&before, &after));
        // Clean traffic still flows and publishes fresh snapshots.
        let report = service.apply(gen.next_batch(4)).unwrap();
        assert!(report.constraints.is_some());
        assert!(!Arc::ptr_eq(&before, &service.snapshot()));
        let pipeline = service.shutdown().unwrap();
        assert!(!pipeline.is_poisoned(), "rejections do not poison");
        assert_eq!(pipeline.stats().rejected_batches, 1);
        assert_eq!(pipeline.stats().batches, 1);
    }
}
