//! The E12 constraint suite (ISSUE 9).
//!
//! Three layers of coverage for incremental, certificate-carrying constraint
//! checking:
//!
//! * `check_constraint` edge cases that the happy-path suites never hit:
//!   composite Skolem keys over objects missing key attributes, dangling
//!   object references inside key paths, empty extents, and duplicate
//!   Skolem-key merges that transiently violate a key and then restore it;
//! * certificate hardening: encode/decode round trips are bit-identical and
//!   *every* single-bit corruption or truncation is rejected loudly (the
//!   `storage::persist::fault` helpers inject the damage);
//! * a pipeline soak: every certificate attached to a committed batch is
//!   round-tripped through the codec and replayed with `recheck` against the
//!   post-batch snapshot, in both `Enforce` and `Report` modes.

use std::collections::BTreeSet;

use wol_repro::morphase::{
    BatchConstraintMode, MaterializedPipeline, MorphaseError, PipelineOptions,
};
use wol_repro::storage::persist::fault::{flip_byte, short_read};
use wol_repro::wol_engine::{
    check_batch, check_constraint, check_constraints, recheck, CertEntry, CheckMode,
    ConstraintCertificate, Databases, EngineError, Violation,
};
use wol_repro::wol_lang::{parse_clause, Clause};
use wol_repro::wol_model::{
    ClassName, Fingerprint, Instance, MutationBatch, Oid, Parallelism, Value,
};
use wol_repro::workloads::constrained::{self, ConstrainedParams};

fn clause(text: &str) -> Clause {
    parse_clause(text).expect("clause parses")
}

fn account(code: &str, region: &str) -> Value {
    Value::record([("code", Value::str(code)), ("region", Value::str(region))])
}

/// Incremental/full differential at one point: apply `batch` to `inst`, then
/// assert `check_batch` (no suspects, single thread) reports exactly what a
/// from-scratch `check_constraints` rescan of the post-batch state reports.
fn check_against_oracle(
    inst: &mut Instance,
    batch: MutationBatch,
    clauses: &[&Clause],
) -> wol_repro::wol_engine::BatchCheck {
    let delta = inst.apply_batch(&batch).expect("batch applies");
    let insts = [&*inst];
    let dbs = Databases::new(&insts);
    let check = check_batch(clauses, &dbs, &delta, Parallelism::new(1), &BTreeSet::new())
        .expect("incremental check runs");
    let oracle = check_constraints(clauses, &dbs).expect("full rescan runs");
    assert_eq!(
        check.violations, oracle,
        "incremental violations must match the full rescan (set and order)"
    );
    check
}

// ---------------------------------------------------------------------------
// `check_constraint` edge cases.
// ---------------------------------------------------------------------------

#[test]
fn composite_key_skips_objects_missing_a_key_attribute() {
    // A two-attribute Skolem key: (code, region) identifies an account.
    let key = clause("K: A = Mk_AccountS(C, R) <= A in AccountS, C = A.code, R = A.region");
    let accounts = ClassName::new("AccountS");
    let mut inst = Instance::new("ledger");
    let a1 = inst.insert_fresh(&accounts, account("AC-1", "eu"));
    // Same code, different region: a *different* composite key, not a dup.
    inst.insert_fresh(&accounts, account("AC-1", "us"));
    // Missing the `region` key attribute entirely: the body cannot bind this
    // object, so it is skipped rather than crashing the evaluator.
    inst.insert_fresh(&accounts, Value::record([("code", Value::str("AC-9"))]));
    let insts = [&inst];
    let dbs = Databases::new(&insts);
    assert_eq!(
        check_constraint(&key, &dbs).expect("check runs"),
        Vec::<Violation>::new(),
        "distinct composite keys and a partially-keyed object are clean"
    );

    // Now a true composite duplicate: both attributes collide.
    let dup = inst.insert_fresh(&accounts, account("AC-1", "eu"));
    let insts = [&inst];
    let dbs = Databases::new(&insts);
    let violations = check_constraint(&key, &dbs).expect("check runs");
    assert_eq!(
        violations.len(),
        1,
        "one injectivity violation: {violations:?}"
    );
    assert_eq!(violations[0].clause, "K");
    assert!(
        violations[0].oids.contains(&a1) && violations[0].oids.contains(&dup),
        "the two colliding accounts are the witnesses: {:?}",
        violations[0].oids
    );
}

#[test]
fn composite_key_duplicates_are_caught_incrementally() {
    let key = clause("K: A = Mk_AccountS(C, R) <= A in AccountS, C = A.code, R = A.region");
    let clauses = [&key];
    let mut inst = Instance::new("ledger");
    let accounts = ClassName::new("AccountS");
    inst.insert_fresh(&accounts, account("AC-1", "eu"));
    inst.insert_fresh(&accounts, Value::record([("code", Value::str("AC-9"))]));

    // A clean insert stays in delta mode and agrees with the oracle.
    let clean = check_against_oracle(
        &mut inst,
        MutationBatch::new().insert("AccountS", account("AC-2", "eu")),
        &clauses,
    );
    assert!(clean.violations.is_empty());
    assert_ne!(clean.certificate.entries[0].mode, CheckMode::Full);

    // Inserting the composite duplicate escalates to a full re-check whose
    // canonical violation list matches the rescan.
    let dirty = check_against_oracle(
        &mut inst,
        MutationBatch::new().insert("AccountS", account("AC-1", "eu")),
        &clauses,
    );
    assert_eq!(dirty.violations.len(), 1);
    assert_eq!(dirty.certificate.entries[0].mode, CheckMode::Full);
}

/// A Skolem key with no parts (`Mk_AccountS()`) names every account one
/// object. It has no attribute to probe, so a batch touching the class
/// re-checks it in full; a program carrying it refuses the second account.
#[test]
fn a_key_with_no_parts_is_checked_in_full() {
    let key = clause("K: A = Mk_AccountS() <= A in AccountS");
    let mut inst = constrained::generate_source(&ConstrainedParams::default());
    let check = check_against_oracle(
        &mut inst,
        MutationBatch::new().insert("AccountS", account("AC-NEW", "eu")),
        &[&key],
    );
    assert_eq!(check.certificate.entries[0].mode, CheckMode::Full);
    assert!(!check.violations.is_empty());

    let mut program = constrained::program();
    program
        .add_text("S4: A = Mk_AccountS() <= A in AccountS;")
        .expect("the key parses");
    program
        .validate()
        .expect("the program admits a key with no parts");
    let params = ConstrainedParams {
        accounts: 1,
        ..ConstrainedParams::default()
    };
    let options = PipelineOptions {
        batch_constraints: BatchConstraintMode::Enforce,
        ..PipelineOptions::default()
    };
    let mut pipeline = MaterializedPipeline::new(
        &program,
        vec![constrained::generate_source(&params)],
        options,
    )
    .expect("one account satisfies the key");
    let err = pipeline
        .apply_batch(&MutationBatch::new().insert("AccountS", account("AC-NEW", "eu")))
        .unwrap_err();
    assert!(
        matches!(&err, MorphaseError::Verification(text) if text.contains("S4")),
        "{err}"
    );
    assert!(!pipeline.is_poisoned());
    assert_eq!(pipeline.stats().rejected_batches, 1);
}

#[test]
fn dangling_oid_references_violate_existence_not_the_checker() {
    let exists = clause("S2: U in UserS <= P in ProfileS, U = P.user");
    let users = ClassName::new("UserS");
    let profiles = ClassName::new("ProfileS");
    let mut inst = Instance::new("registry");
    let alive = inst.insert_fresh(
        &users,
        Value::record([("email", Value::str("a@x")), ("name", Value::str("A"))]),
    );
    inst.insert_fresh(
        &profiles,
        Value::record([
            ("nick", Value::str("ok")),
            ("user", Value::Oid(alive.clone())),
        ]),
    );
    // A reference to an identity that was never minted: dangling.
    let ghost = Oid::new(users.clone(), 9_999);
    let orphan = inst.insert_fresh(
        &profiles,
        Value::record([
            ("nick", Value::str("orphan")),
            ("user", Value::Oid(ghost.clone())),
        ]),
    );
    let insts = [&inst];
    let dbs = Databases::new(&insts);
    let violations = check_constraint(&exists, &dbs).expect("check runs");
    assert_eq!(
        violations.len(),
        1,
        "only the orphan violates: {violations:?}"
    );
    assert!(
        violations[0].oids.contains(&orphan) && violations[0].oids.contains(&ghost),
        "the orphan profile and its dangling target are the witnesses: {:?}",
        violations[0].oids
    );
}

#[test]
fn dangling_oids_inside_merge_key_paths_are_skipped_not_fatal() {
    // The merge key dereferences `user` on the way to `email`; a dangling
    // `user` makes the path unevaluable for that binding, which skips the
    // binding rather than failing the whole check.
    let merge = clause("SP: X = Y <= X in ProfileS, Y in ProfileS, X.user.email = Y.user.email");
    let clauses = [&merge];
    let users = ClassName::new("UserS");
    let profiles = ClassName::new("ProfileS");
    let mut inst = Instance::new("registry");
    let u1 = inst.insert_fresh(
        &users,
        Value::record([("email", Value::str("dup@x")), ("name", Value::str("A"))]),
    );
    let u2 = inst.insert_fresh(
        &users,
        Value::record([("email", Value::str("dup@x")), ("name", Value::str("B"))]),
    );
    let p1 = inst.insert_fresh(
        &profiles,
        Value::record([("nick", Value::str("p1")), ("user", Value::Oid(u1))]),
    );
    let p2 = inst.insert_fresh(
        &profiles,
        Value::record([("nick", Value::str("p2")), ("user", Value::Oid(u2))]),
    );
    let ghost = Oid::new(users.clone(), 9_999);
    let orphan = inst.insert_fresh(
        &profiles,
        Value::record([("nick", Value::str("orphan")), ("user", Value::Oid(ghost))]),
    );
    let insts = [&inst];
    let dbs = Databases::new(&insts);
    let violations = check_constraint(&merge, &dbs).expect("dangling path must not error");
    // p1/p2 share an email through live users: both orientations violate the
    // merge. The orphan never binds.
    assert_eq!(violations.len(), 2, "{violations:?}");
    for v in &violations {
        assert!(v.oids.contains(&p1) && v.oids.contains(&p2));
        assert!(!v.oids.contains(&orphan), "the orphan cannot be a witness");
    }

    // The incremental path agrees after a batch touches the class.
    let check = check_against_oracle(
        &mut inst,
        MutationBatch::new().insert(
            "ProfileS",
            Value::record([
                ("nick", Value::str("p3")),
                ("user", Value::Oid(Oid::new(users, 8_888))),
            ]),
        ),
        &clauses,
    );
    assert_eq!(check.violations.len(), 2);
}

#[test]
fn empty_extents_are_vacuously_clean_and_skipped() {
    let clauses_owned = [
        clause("S1: X = Y <= X in UserS, Y in UserS, X.email = Y.email"),
        clause("S2: U in UserS <= P in ProfileS, U = P.user"),
        clause("S3: A = Mk_AccountS(C) <= A in AccountS, C = A.code"),
    ];
    let clauses: Vec<&Clause> = clauses_owned.iter().collect();
    let mut inst = Instance::new("empty");
    let insts = [&inst];
    let dbs = Databases::new(&insts);
    assert_eq!(
        check_constraints(&clauses, &dbs).expect("check runs"),
        Vec::<Violation>::new()
    );

    // A batch over a class none of the constraints read: every entry is
    // skipped, nothing is examined, and the oracle agrees.
    let check = check_against_oracle(
        &mut inst,
        MutationBatch::new().insert("AuditS", Value::record([("at", Value::int(1))])),
        &clauses,
    );
    assert_eq!(check.certificate.skipped(), 3);
    assert_eq!(check.certificate.checked(), 0);
    assert_eq!(check.certificate.probes(), 0);
}

#[test]
fn duplicate_skolem_key_merge_transiently_violates_then_restores() {
    let key = clause("S3: A = Mk_AccountS(C) <= A in AccountS, C = A.code");
    let clauses = [&key];
    let accounts = ClassName::new("AccountS");
    let mut inst = Instance::new("ledger");
    for i in 0..8 {
        inst.insert_fresh(&accounts, account(&format!("AC-{i}"), "eu"));
    }

    // Batch 1 duplicates a key: the probe goes dirty and the full re-check
    // reports the canonical witness pair.
    let delta = inst
        .apply_batch(&MutationBatch::new().insert("AccountS", account("AC-3", "us")))
        .expect("batch applies");
    let dup = delta
        .class(&accounts)
        .unwrap()
        .inserted
        .iter()
        .next()
        .unwrap()
        .clone();
    let insts = [&inst];
    let dbs = Databases::new(&insts);
    let trip = check_batch(
        &clauses,
        &dbs,
        &delta,
        Parallelism::new(1),
        &BTreeSet::new(),
    )
    .expect("check runs");
    assert_eq!(trip.violations.len(), 1);
    assert_eq!(trip.certificate.entries[0].mode, CheckMode::Full);
    assert!(trip.violations[0].oids.contains(&dup));
    let oracle = check_constraints(&clauses, &dbs).expect("rescan runs");
    assert_eq!(trip.violations, oracle);

    // The violation was *committed*, so S3's pre-clean contract is void: the
    // next batch must carry it as a suspect. Removing the duplicate restores
    // the key, and the forced full re-check proves it.
    let suspects: BTreeSet<usize> = [0].into();
    let delta = inst
        .apply_batch(&MutationBatch::new().remove(dup))
        .expect("batch applies");
    let insts = [&inst];
    let dbs = Databases::new(&insts);
    let restored =
        check_batch(&clauses, &dbs, &delta, Parallelism::new(1), &suspects).expect("check runs");
    assert!(restored.violations.is_empty(), "{:?}", restored.violations);
    assert_eq!(restored.certificate.entries[0].mode, CheckMode::Full);

    // With the key restored and the suspicion cleared, untouched traffic
    // skips the constraint again.
    let delta = inst
        .apply_batch(&MutationBatch::new().insert("AuditS", Value::record([("at", Value::int(1))])))
        .expect("batch applies");
    let insts = [&inst];
    let dbs = Databases::new(&insts);
    let idle = check_batch(
        &clauses,
        &dbs,
        &delta,
        Parallelism::new(1),
        &BTreeSet::new(),
    )
    .expect("check runs");
    assert_eq!(idle.certificate.entries[0].mode, CheckMode::Skipped);
}

// ---------------------------------------------------------------------------
// Certificate round trips and tamper rejection.
// ---------------------------------------------------------------------------

/// A certificate exercising every mode, violation witnesses included.
fn sample_certificate() -> ConstraintCertificate {
    ConstraintCertificate {
        entries: vec![
            CertEntry {
                constraint: "S1".into(),
                mode: CheckMode::Full,
                checked: 120,
                probes: 7,
                violations: vec![Violation {
                    clause: "S1".into(),
                    detail: "no head witness for binding [X = #UserS:3]".into(),
                    oids: vec![
                        Oid::new(ClassName::new("UserS"), 3),
                        Oid::new(ClassName::new("UserS"), 61),
                    ],
                }],
            },
            CertEntry {
                constraint: "S2".into(),
                mode: CheckMode::Delta,
                checked: 4,
                probes: 2,
                violations: Vec::new(),
            },
            CertEntry {
                constraint: "<unlabelled>".into(),
                mode: CheckMode::Skipped,
                checked: 0,
                probes: 0,
                violations: Vec::new(),
            },
        ],
    }
}

#[test]
fn certificate_round_trip_is_bit_identical() {
    for cert in [
        sample_certificate(),
        ConstraintCertificate {
            entries: Vec::new(),
        },
    ] {
        let bytes = cert.encode();
        let decoded = ConstraintCertificate::decode(&bytes).expect("decodes");
        assert_eq!(decoded, cert);
        assert_eq!(decoded.encode(), bytes, "re-encoding must be bit-identical");
    }
}

#[test]
fn every_single_bit_flip_in_a_certificate_is_rejected() {
    let bytes = sample_certificate().encode();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut tampered = bytes.clone();
            flip_byte(&mut tampered, at, 1 << bit);
            let err = ConstraintCertificate::decode(&tampered)
                .expect_err(&format!("a flipped bit {bit} at byte {at} must not decode"));
            assert!(
                matches!(err, EngineError::Certificate(_)),
                "tamper errors are certificate errors, got: {err}"
            );
        }
    }
}

#[test]
fn truncated_and_extended_certificates_are_rejected() {
    let bytes = sample_certificate().encode();
    for len in 0..bytes.len() {
        assert!(
            ConstraintCertificate::decode(short_read(&bytes, len)).is_err(),
            "a {len}-byte prefix of a {}-byte certificate must not decode",
            bytes.len()
        );
    }
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(ConstraintCertificate::decode(&extended).is_err());
}

#[test]
fn recheck_rejects_stale_and_mismatched_certificates() {
    let key = clause("S3: A = Mk_AccountS(C) <= A in AccountS, C = A.code");
    let clauses = [&key];
    let accounts = ClassName::new("AccountS");
    let mut inst = Instance::new("ledger");
    for i in 0..4 {
        inst.insert_fresh(&accounts, account(&format!("AC-{i}"), "eu"));
    }
    let delta = inst
        .apply_batch(&MutationBatch::new().insert("AccountS", account("AC-4", "eu")))
        .expect("batch applies");
    let insts = [&inst];
    let dbs = Databases::new(&insts);
    let check = check_batch(
        &clauses,
        &dbs,
        &delta,
        Parallelism::new(1),
        &BTreeSet::new(),
    )
    .expect("check runs");

    // Honest replay against the state the certificate was issued for.
    let report = recheck(&check.certificate, &clauses, &dbs).expect("honest replay passes");
    assert_eq!(report.constraints, 1);
    assert_eq!(report.violations, 0);

    // Wrong clause count.
    assert!(recheck(&check.certificate, &[], &dbs).is_err());

    // Wrong clause identity (label mismatch).
    let other = clause("S9: A = Mk_AccountS(C) <= A in AccountS, C = A.code");
    assert!(recheck(&check.certificate, &[&other], &dbs).is_err());

    // Stale snapshot: the state drifted (a duplicate key appeared), so a
    // certificate recorded as clean no longer replays.
    inst.apply_batch(&MutationBatch::new().insert("AccountS", account("AC-0", "us")))
        .expect("batch applies");
    let insts = [&inst];
    let dirty_dbs = Databases::new(&insts);
    let err = recheck(&check.certificate, &clauses, &dirty_dbs)
        .expect_err("a clean certificate must not replay against a dirty snapshot");
    assert!(matches!(err, EngineError::Certificate(_)));
}

// ---------------------------------------------------------------------------
// Pipeline soak: every committed batch's certificate replays.
// ---------------------------------------------------------------------------

/// Replay `check`'s certificate through a codec round trip and `recheck`
/// against the pipeline's current (post-batch) source snapshot.
fn assert_certificate_replays(
    pipeline: &MaterializedPipeline,
    check: &wol_repro::wol_engine::BatchCheck,
) {
    let bytes = check.certificate.encode();
    let decoded = ConstraintCertificate::decode(&bytes).expect("committed certificate decodes");
    assert_eq!(decoded, check.certificate);
    let clauses: Vec<&Clause> = pipeline.constraints().iter().collect();
    let insts = [pipeline.source(0).expect("source 0 exists")];
    let dbs = Databases::new(&insts);
    let report = recheck(&decoded, &clauses, &dbs).expect("committed certificate replays");
    assert_eq!(
        report.violations as u64,
        check.certificate.violation_count()
    );
}

#[test]
fn enforce_soak_every_committed_certificate_replays_against_its_snapshot() {
    let params = ConstrainedParams::default();
    let source = constrained::generate_source(&params);
    let options = PipelineOptions {
        batch_constraints: BatchConstraintMode::Enforce,
        ..PipelineOptions::default()
    };
    let mut pipeline =
        MaterializedPipeline::new(&constrained::program(), vec![source.clone()], options)
            .expect("pipeline builds");
    let mut gen = constrained::ConstrainedGen::new(&source, 31);
    let mut committed = 0u64;
    for i in 0..30 {
        if i % 10 == 9 {
            // Adversarial traffic: rejected wholesale, state untouched.
            let err = pipeline.apply_batch(&gen.violating_batch()).unwrap_err();
            assert!(matches!(err, MorphaseError::Verification(_)));
            assert!(!pipeline.is_poisoned());
            continue;
        }
        let report = pipeline
            .apply_batch(&gen.next_batch(5))
            .expect("clean batch commits");
        let check = report.constraints.expect("enforce mode attaches a check");
        assert!(check.violations.is_empty(), "{:?}", check.violations);
        assert_certificate_replays(&pipeline, &check);
        committed += 1;
    }
    assert_eq!(pipeline.stats().batches, committed);
    assert_eq!(pipeline.stats().rejected_batches, 3);
    // The maintained target still matches a from-scratch oracle at the end.
    let oracle = pipeline.rerun_oracle().expect("oracle runs");
    assert!(pipeline.target().deep_eq_report(&oracle.target).is_none());
}

#[test]
fn report_soak_committed_violations_replay_until_restored() {
    let params = ConstrainedParams::default();
    let source = constrained::generate_source(&params);
    let options = PipelineOptions {
        batch_constraints: BatchConstraintMode::Report,
        ..PipelineOptions::default()
    };
    let mut pipeline =
        MaterializedPipeline::new(&constrained::program(), vec![source.clone()], options)
            .expect("pipeline builds");
    let mut gen = constrained::ConstrainedGen::new(&source, 32);

    // A few clean batches, all replaying clean.
    for _ in 0..5 {
        let report = pipeline
            .apply_batch(&gen.next_batch(4))
            .expect("clean batch commits");
        let check = report.constraints.expect("report mode attaches a check");
        assert!(check.violations.is_empty());
        assert_certificate_replays(&pipeline, &check);
    }

    // Report mode commits the violating batch; the certificate records the
    // S1 witnesses and *still* replays against the now-dirty snapshot.
    let report = pipeline
        .apply_batch(&gen.violating_batch())
        .expect("report mode commits violating batches");
    let dirty = report.constraints.expect("report mode attaches a check");
    assert!(!dirty.violations.is_empty());
    assert!(dirty.violations.iter().all(|v| v.clause == "S1"));
    assert_certificate_replays(&pipeline, &dirty);
    assert_eq!(pipeline.stats().rejected_batches, 0);

    // Clean traffic on top of a dirty base keeps reporting (the suspect is
    // re-checked in full every batch) and keeps replaying.
    let report = pipeline
        .apply_batch(&gen.next_batch(3))
        .expect("batch commits");
    let still_dirty = report.constraints.expect("check attached");
    assert!(!still_dirty.violations.is_empty());
    assert_certificate_replays(&pipeline, &still_dirty);

    // Removing the imposter restores S1; the restore batch's own full
    // re-check proves it and replays clean.
    let users = ClassName::new("UserS");
    let imposter = pipeline
        .source(0)
        .expect("source 0 exists")
        .extent(&users)
        .find(|oid| {
            pipeline
                .source(0)
                .unwrap()
                .value(oid)
                .and_then(|v| v.project("tier"))
                == Some(&Value::int(constrained::IMPOSTER_TIER))
        })
        .expect("the imposter is live")
        .clone();
    let report = pipeline
        .apply_batch(&MutationBatch::new().remove(imposter))
        .expect("restore batch commits");
    let restored = report.constraints.expect("check attached");
    assert!(restored.violations.is_empty(), "{:?}", restored.violations);
    assert_certificate_replays(&pipeline, &restored);
}

/// The parallel determinism contract at suite level: the same stream checked
/// at 1, 2, 4 and 8 threads yields byte-identical certificates and identical
/// violation lists. (The property suite fuzzes this; here one fixed stream
/// runs under whatever `WOL_THREADS` CI pins, plus the explicit ladder, whose
/// lowered partition minimum splits the pipeline's executor; the checker
/// runs on one thread.)
#[test]
fn certificates_are_bit_identical_at_every_thread_count() {
    let params = ConstrainedParams::default();
    let source = constrained::generate_source(&params);
    let program = constrained::program();
    let mut reference: Option<Vec<Vec<u8>>> = None;
    for threads in [1usize, 2, 4, 8] {
        let parallelism = Parallelism::new(threads).with_min_items(1);
        let options = PipelineOptions {
            batch_constraints: BatchConstraintMode::Report,
            parallelism,
            ..PipelineOptions::default()
        };
        let mut pipeline = MaterializedPipeline::new(&program, vec![source.clone()], options)
            .expect("pipeline builds");
        let mut gen = constrained::ConstrainedGen::new(&source, 77);
        let mut encoded = Vec::new();
        for i in 0..12 {
            let batch = if i == 6 {
                gen.violating_batch()
            } else {
                gen.next_batch(4)
            };
            let report = pipeline.apply_batch(&batch).expect("batch commits");
            let certificate = report.constraints.expect("check attached").certificate;
            encoded.push(certificate.encode());
        }
        match &reference {
            None => reference = Some(encoded),
            Some(expected) => assert_eq!(
                &encoded, expected,
                "certificates diverged at {threads} threads"
            ),
        }
    }
    // The twelve certificates' bytes, pinned when delta detection and the
    // full re-checks still split across worker threads: a one-thread checker
    // must encode the very same counters and violation lists.
    let mut fingerprint = Fingerprint::new();
    for bytes in reference.expect("the ladder ran") {
        fingerprint.eat(&bytes);
    }
    assert_eq!(fingerprint.finish(), 0x805a_bdd7_03a9_68ee);
}
