//! Incremental constraint checking with auditable certificates.
//!
//! [`check_batch`] validates a [`BatchDelta`] against a set of constraint
//! clauses without re-scanning the untouched extents and emits a
//! [`ConstraintCertificate`] that an independent [`recheck`] can replay
//! against a snapshot. It runs on the calling thread, one clause at a time
//! in clause order: delta detection over every changed object (no early
//! exit, so the certificate's counters are the whole delta's), then, where
//! needed, the canonical full re-check.
//!
//! # Contract
//!
//! The result is *identical* — same violations, same order — to a full
//! [`check_constraints`](super::check_constraints) run over the post-batch
//! state, **provided the pre-batch state satisfied every constraint** (the
//! "pre-clean" contract). The standing pipeline maintains that contract by
//! rejecting (or flagging as suspect, see below) every violating batch.
//!
//! # How it works
//!
//! Each constraint's read set is the shared [`ReadSet`]: which classes its
//! body and head member atoms read, which classes its projections
//! dereference, and whether the clause is *local* ([`ReadSet::is_local`]) —
//! every body member atom binds a plain variable and every projection is a
//! single attribute step over a member-bound variable. Locality is what
//! makes the read set exact: a binding that contains no delta-touched object
//! evaluates every atom to the same truth value before and after the batch.
//! The analysis is untyped: `check_batch` sees no schemas.
//!
//! Per batch, each constraint is then planned into one of three modes:
//!
//! * **Skipped** — the delta does not intersect the read set (or the delta
//!   is empty). Under the pre-clean contract the constraint still holds.
//! * **Delta** — only delta-touched objects are examined. Key-shaped
//!   constraints (Skolem keys and merge keys over single attributes) probe
//!   the maintained attribute indexes for colliding keys; other local
//!   constraints re-match the body *seeded* with each changed object and
//!   re-check the head witness for the resulting bindings only.
//! * **Full** — the constraint is re-checked from scratch: it is not local,
//!   a head-witness class went stale (removals, or updates to a projected
//!   class, can break bindings that contain no changed object), it was
//!   passed in `suspects`, or delta detection found a violation.
//!
//! Delta detection never reports violations itself: any hit escalates the
//! constraint to a Full re-check, whose output is canonical. This is what
//! makes the incremental violation list bit-identical to the full scan — the
//! canonical lists are concatenated in clause order. Seeded detection *is* the full check restricted to the
//! bindings through one changed object (`check_constraint_counted` with that
//! object as the initial binding): "dirty" means its violation list is
//! non-empty, so the two cannot disagree about what a missing head witness
//! is.
//!
//! # Suspects
//!
//! When a caller *commits* a batch despite violations (report-only
//! enforcement), the pre-clean contract no longer holds for the violated
//! constraints. Passing their indices as `suspects` forces them to Full
//! mode until they re-check clean, preserving the contract for everything
//! else.
//!
//! The certificate wire format is documented field-by-field in the crate
//! docs ("Constraint checking").

use std::collections::BTreeSet;

use storage::persist::codec::{self, ByteReader};
use wol_lang::ast::{Atom, Clause, Term, Var};
use wol_model::{BatchDelta, ClassName, Label, Oid, Parallelism, Value};

use crate::constraints::{
    check_constraint_counted, classify_constraint, clause_name, ConstraintClass, Violation,
};
use crate::env::{Bindings, Databases};
use crate::error::EngineError;
use crate::read_set::ReadSet;
use crate::Result;

/// Magic bytes opening an encoded certificate.
pub(crate) const CERTIFICATE_MAGIC: &[u8; 8] = b"WOLCERT\0";
/// Current certificate format version.
pub(crate) const CERTIFICATE_VERSION: u32 = 1;

/// How one constraint was validated against a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckMode {
    /// The delta cannot affect the constraint; nothing was examined.
    Skipped,
    /// Only delta-touched objects were examined (seeded matches and index
    /// probes) and none produced a violation.
    Delta,
    /// The constraint was re-checked from scratch.
    Full,
}

impl CheckMode {
    fn tag(self) -> u8 {
        match self {
            CheckMode::Skipped => 0,
            CheckMode::Delta => 1,
            CheckMode::Full => 2,
        }
    }

    fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(CheckMode::Skipped),
            1 => Some(CheckMode::Delta),
            2 => Some(CheckMode::Full),
            _ => None,
        }
    }
}

/// One constraint's record in a [`ConstraintCertificate`]: either a clean
/// checked-count/probe summary (empty `violations`) or the violating
/// witnesses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertEntry {
    /// Label of the constraint clause (or `<unlabelled>`).
    pub constraint: String,
    /// How the constraint was validated.
    pub mode: CheckMode,
    /// Objects or bindings examined (delta seeds plus, for Full mode, the
    /// body bindings of the from-scratch re-check).
    pub checked: u64,
    /// Attribute-index probes issued by delta detection.
    pub probes: u64,
    /// The canonical violation list for this constraint (empty when clean).
    pub violations: Vec<Violation>,
}

/// An auditable record of one batch validation: one [`CertEntry`] per
/// constraint, in constraint order. Serialized with the `storage::persist`
/// codec and protected by a CRC-32 trailer so that any bit flip is detected
/// on decode; [`recheck`] replays the recorded outcome against a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstraintCertificate {
    /// Per-constraint outcomes, aligned with the clause list that was
    /// checked.
    pub entries: Vec<CertEntry>,
}

impl ConstraintCertificate {
    /// Total objects/bindings examined across all constraints.
    pub fn checked(&self) -> u64 {
        self.entries.iter().map(|e| e.checked).sum()
    }

    /// Total attribute-index probes issued.
    pub fn probes(&self) -> u64 {
        self.entries.iter().map(|e| e.probes).sum()
    }

    /// Constraints skipped by read-set analysis.
    pub fn skipped(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.mode == CheckMode::Skipped)
            .count() as u64
    }

    /// Constraints actually validated (delta or full mode).
    pub fn validated(&self) -> u64 {
        self.entries.len() as u64 - self.skipped()
    }

    /// Total violations recorded.
    pub fn violation_count(&self) -> u64 {
        self.entries.iter().map(|e| e.violations.len() as u64).sum()
    }

    /// Serialize with the `storage::persist` codec: magic, version, entry
    /// list, CRC-32 trailer over everything before the trailer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(CERTIFICATE_MAGIC);
        codec::put_u32(&mut out, CERTIFICATE_VERSION);
        codec::put_varint(&mut out, self.entries.len() as u64);
        for entry in &self.entries {
            codec::put_str(&mut out, &entry.constraint);
            out.push(entry.mode.tag());
            codec::put_varint(&mut out, entry.checked);
            codec::put_varint(&mut out, entry.probes);
            codec::put_varint(&mut out, entry.violations.len() as u64);
            for v in &entry.violations {
                codec::put_str(&mut out, &v.clause);
                codec::put_str(&mut out, &v.detail);
                codec::put_varint(&mut out, v.oids.len() as u64);
                for oid in &v.oids {
                    codec::put_oid(&mut out, oid);
                }
            }
        }
        let crc = codec::crc32(&out);
        codec::put_u32(&mut out, crc);
        out
    }

    /// Decode an encoded certificate, verifying magic, version and the
    /// CRC-32 trailer. Any corruption — a single flipped or missing bit —
    /// is an [`EngineError::Certificate`], never a silently wrong result.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let min = CERTIFICATE_MAGIC.len() + 4 + 4;
        if bytes.len() < min {
            return Err(EngineError::Certificate(format!(
                "certificate too short: {} bytes, need at least {min}",
                bytes.len()
            )));
        }
        let (payload, trailer) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(<[u8; 4]>::try_from(trailer).map_err(|_| {
            EngineError::Certificate("certificate trailer is not 4 bytes".to_string())
        })?);
        let actual = codec::crc32(payload);
        if stored != actual {
            return Err(EngineError::Certificate(format!(
                "certificate checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        let mut r = ByteReader::new(payload, "constraint certificate");
        let decode = |e: storage::StorageError| EngineError::Certificate(e.to_string());
        let magic = r.take(CERTIFICATE_MAGIC.len()).map_err(decode)?;
        if magic != CERTIFICATE_MAGIC {
            return Err(EngineError::Certificate(format!(
                "bad certificate magic {magic:02x?}"
            )));
        }
        let version = r.u32().map_err(decode)?;
        if version != CERTIFICATE_VERSION {
            return Err(EngineError::Certificate(format!(
                "unsupported certificate version {version} (supported: {CERTIFICATE_VERSION})"
            )));
        }
        let entry_count = r.varint().map_err(decode)?;
        let mut entries = Vec::new();
        for _ in 0..entry_count {
            let constraint = r.str().map_err(decode)?;
            let tag = r.u8().map_err(decode)?;
            let mode = CheckMode::from_tag(tag).ok_or_else(|| {
                EngineError::Certificate(format!("unknown check-mode tag {tag:#04x}"))
            })?;
            let checked = r.varint().map_err(decode)?;
            let probes = r.varint().map_err(decode)?;
            let violation_count = r.varint().map_err(decode)?;
            let mut violations = Vec::new();
            for _ in 0..violation_count {
                let clause = r.str().map_err(decode)?;
                let detail = r.str().map_err(decode)?;
                let oid_count = r.varint().map_err(decode)?;
                let mut oids = Vec::new();
                for _ in 0..oid_count {
                    oids.push(r.oid().map_err(decode)?);
                }
                violations.push(Violation {
                    clause,
                    detail,
                    oids,
                });
            }
            entries.push(CertEntry {
                constraint,
                mode,
                checked,
                probes,
                violations,
            });
        }
        if !r.is_at_end() {
            return Err(EngineError::Certificate(format!(
                "{} trailing bytes after the last entry",
                r.remaining()
            )));
        }
        Ok(ConstraintCertificate { entries })
    }
}

/// The outcome of one incremental batch validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchCheck {
    /// All violations, in the deterministic order of a full
    /// [`check_constraints`](super::check_constraints) run (clause order,
    /// then binding order).
    pub violations: Vec<Violation>,
    /// The auditable per-constraint record.
    pub certificate: ConstraintCertificate,
}

/// The outcome of replaying a certificate against a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecheckReport {
    /// Constraints replayed.
    pub constraints: usize,
    /// Violations confirmed (all of them, or [`recheck`] would have failed).
    pub violations: usize,
}

// ---------------------------------------------------------------------------
// Planning.
// ---------------------------------------------------------------------------

enum Plan {
    Skip,
    Full,
    /// Probe the attribute indexes: does any changed object of `class`
    /// share all `attrs` values with a *different* object?
    KeyProbe {
        class: ClassName,
        attrs: Vec<Label>,
        oids: Vec<Oid>,
    },
    /// Re-match the body seeded with each changed object and re-check the
    /// head witness for the resulting bindings.
    Seeded {
        seeds: Vec<(Var, Oid)>,
    },
}

/// The attributes of a key whose every part is one attribute step, or `None`
/// — also for a key with no parts, which has nothing to probe and is checked
/// in full.
fn single_attrs(paths: &[wol_model::Path]) -> Option<Vec<Label>> {
    if paths.is_empty() {
        return None;
    }
    paths
        .iter()
        .map(|p| match p.segments() {
            [only] => Some(only.clone()),
            _ => None,
        })
        .collect()
}

/// The classes `atoms`' member atoms read.
fn member_classes(atoms: &[Atom]) -> impl Iterator<Item = &ClassName> {
    atoms.iter().filter_map(|atom| match atom {
        Atom::Member(_, class) => Some(class),
        _ => None,
    })
}

fn plan_constraint(
    idx: usize,
    clause: &Clause,
    delta: &BatchDelta,
    suspects: &BTreeSet<usize>,
) -> Plan {
    if suspects.contains(&idx) {
        // The pre-clean contract is void for this constraint: re-check it
        // from scratch regardless of the delta.
        return Plan::Full;
    }
    if delta.is_empty() {
        return Plan::Skip;
    }
    let read = ReadSet::of_clause(clause);
    if !read.is_local() {
        return Plan::Full;
    }
    let changed = |c: &ClassName| delta.class(c).is_some_and(|d| !d.is_empty());
    if !member_classes(&clause.body)
        .chain(member_classes(&clause.head))
        .any(changed)
    {
        return Plan::Skip;
    }
    // Staleness in the witness classes can break bindings that contain no
    // changed object: removals always (a witness may disappear), updates
    // only when the class is actually projected (bare membership survives
    // an update).
    for c in member_classes(&clause.head) {
        if let Some(d) = delta.class(c) {
            if !d.removed.is_empty() {
                return Plan::Full;
            }
            if !d.updated.is_empty() && read.projected.contains_key(c) {
                return Plan::Full;
            }
        }
    }
    // Every body member atom of a local clause binds a variable: the seeds.
    let body_members: Vec<(&Var, &ClassName)> = clause
        .body
        .iter()
        .filter_map(|atom| match atom {
            Atom::Member(Term::Var(var), class) => Some((var, class)),
            _ => None,
        })
        .collect();
    let has_key_atoms = clause.head.iter().any(|atom| {
        matches!(atom, Atom::Eq(s, t)
            if matches!(s, Term::Skolem(..)) || matches!(t, Term::Skolem(..)))
    });
    match classify_constraint(clause) {
        ConstraintClass::SkolemKey(okey)
            if body_members.len() == 1 && *body_members[0].1 == okey.class =>
        {
            let Some(attrs) = single_attrs(
                &okey
                    .parts
                    .iter()
                    .map(|(_, p)| p.clone())
                    .collect::<Vec<_>>(),
            ) else {
                return Plan::Full;
            };
            let oids = delta
                .class(&okey.class)
                .map(|d| d.changed().into_iter().collect())
                .unwrap_or_default();
            Plan::KeyProbe {
                class: okey.class,
                attrs,
                oids,
            }
        }
        ConstraintClass::MergeKey { class, paths } => match single_attrs(&paths) {
            Some(attrs) => {
                let oids = delta
                    .class(&class)
                    .map(|d| d.changed().into_iter().collect())
                    .unwrap_or_default();
                Plan::KeyProbe { class, attrs, oids }
            }
            None => Plan::Full,
        },
        _ if !has_key_atoms => {
            let mut seeds = Vec::new();
            for (var, class) in body_members {
                if let Some(d) = delta.class(class) {
                    for oid in d.changed() {
                        seeds.push(((*var).clone(), oid));
                    }
                }
            }
            Plan::Seeded { seeds }
        }
        // A key-bearing head in a shape we cannot probe: re-check fully.
        _ => Plan::Full,
    }
}

// ---------------------------------------------------------------------------
// Delta detection.
// ---------------------------------------------------------------------------

/// What delta detection found for one constraint: whether any changed
/// object is dirty, and the objects and probes it examined.
#[derive(Default)]
struct Detection {
    dirty: bool,
    checked: u64,
    probes: u64,
}

fn detect_key_probe(
    dbs: &Databases<'_>,
    class: &ClassName,
    attrs: &[Label],
    oids: &[Oid],
) -> Detection {
    let mut out = Detection::default();
    for oid in oids {
        out.checked += 1;
        let Some(value) = dbs.value_of(oid) else {
            continue;
        };
        let mut parts: Vec<&Value> = Vec::with_capacity(attrs.len());
        for attr in attrs {
            match value.project(attr) {
                Some(v) => parts.push(v),
                // An object without the key attribute never produces a body
                // binding, so the full check skips it too.
                None => break,
            }
        }
        if parts.len() != attrs.len() {
            continue;
        }
        out.probes += 1;
        for candidate in dbs.lookup_by_attr(class, &attrs[0], parts[0]) {
            if &candidate == oid {
                continue;
            }
            let Some(cv) = dbs.value_of(&candidate) else {
                continue;
            };
            if attrs
                .iter()
                .zip(&parts)
                .all(|(attr, part)| cv.project(attr) == Some(*part))
            {
                out.dirty = true;
            }
        }
    }
    out
}

/// Whether any body binding through one of the `seeds` lacks a head witness:
/// the full check of [`check_constraint_counted`], restricted to each seed.
fn detect_seeded(dbs: &Databases<'_>, clause: &Clause, seeds: &[(Var, Oid)]) -> Result<Detection> {
    let mut out = Detection::default();
    for (var, oid) in seeds {
        out.checked += 1;
        let seed = Bindings::from([(var.clone(), Value::Oid(oid.clone()))]);
        out.dirty |= !check_constraint_counted(clause, dbs, seed)?.0.is_empty();
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// The batch checker.
// ---------------------------------------------------------------------------

/// Validate a mutation batch against `clauses` incrementally.
///
/// `dbs` must be the *post-batch* state whose maintained attribute indexes
/// the key probes reuse; `delta` is the batch's net effect. `suspects` holds
/// indices of clauses whose pre-batch cleanliness is not known (e.g. they
/// were violated by a previously *committed* batch); they are re-checked in
/// full. See the module docs for the exactness argument.
///
/// `_parallelism` is not read: the checker runs on the calling thread. Kept
/// only for the benchmark's frozen surface (ROADMAP item 1A).
pub fn check_batch(
    clauses: &[&Clause],
    dbs: &Databases<'_>,
    delta: &BatchDelta,
    _parallelism: Parallelism,
    suspects: &BTreeSet<usize>,
) -> Result<BatchCheck> {
    let mut entries = Vec::with_capacity(clauses.len());
    let mut violations = Vec::new();
    for (idx, clause) in clauses.iter().enumerate() {
        let plan = plan_constraint(idx, clause, delta, suspects);
        let detection = match &plan {
            Plan::KeyProbe { class, attrs, oids } => detect_key_probe(dbs, class, attrs, oids),
            Plan::Seeded { seeds } => detect_seeded(dbs, clause, seeds)?,
            Plan::Skip | Plan::Full => Detection::default(),
        };
        let constraint = clause_name(clause);
        let entry = match plan {
            Plan::Skip => CertEntry {
                constraint,
                mode: CheckMode::Skipped,
                checked: 0,
                probes: 0,
                violations: Vec::new(),
            },
            Plan::KeyProbe { .. } | Plan::Seeded { .. } if !detection.dirty => CertEntry {
                constraint,
                mode: CheckMode::Delta,
                checked: detection.checked,
                probes: detection.probes,
                violations: Vec::new(),
            },
            Plan::KeyProbe { .. } | Plan::Seeded { .. } | Plan::Full => {
                let (found, full_checked) = check_constraint_counted(clause, dbs, Bindings::new())?;
                CertEntry {
                    constraint,
                    mode: CheckMode::Full,
                    checked: detection.checked + full_checked,
                    probes: detection.probes,
                    violations: found,
                }
            }
        };
        violations.extend(entry.violations.iter().cloned());
        entries.push(entry);
    }
    Ok(BatchCheck {
        violations,
        certificate: ConstraintCertificate { entries },
    })
}

/// Replay a certificate against a snapshot: every entry's recorded outcome
/// — clean or the exact violation list — must agree with a from-scratch
/// [`check_constraint`](super::check_constraint) of the matching clause.
/// Any disagreement (or a label mismatch) is an [`EngineError::Certificate`].
pub fn recheck(
    certificate: &ConstraintCertificate,
    clauses: &[&Clause],
    dbs: &Databases<'_>,
) -> Result<RecheckReport> {
    if certificate.entries.len() != clauses.len() {
        return Err(EngineError::Certificate(format!(
            "certificate covers {} constraint(s) but {} were supplied",
            certificate.entries.len(),
            clauses.len()
        )));
    }
    let mut violations = 0;
    for (entry, clause) in certificate.entries.iter().zip(clauses) {
        let name = clause_name(clause);
        if entry.constraint != name {
            return Err(EngineError::Certificate(format!(
                "certificate entry is for `{}` but the clause is `{name}`",
                entry.constraint
            )));
        }
        let (found, _) = check_constraint_counted(clause, dbs, Bindings::new())?;
        if found != entry.violations {
            return Err(EngineError::Certificate(format!(
                "constraint `{name}`: certificate records {} violation(s) but the snapshot \
                 re-check found {}",
                entry.violations.len(),
                found.len()
            )));
        }
        violations += found.len();
    }
    Ok(RecheckReport {
        constraints: certificate.entries.len(),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_lang::parse_clause;
    use wol_model::{Instance, MutationBatch};

    fn user(email: &str, name: &str) -> Value {
        Value::record([("email", Value::str(email)), ("name", Value::str(name))])
    }

    fn setup() -> Instance {
        let mut inst = Instance::new("registry");
        let users = ClassName::new("UserS");
        for i in 0..20 {
            inst.insert_fresh(&users, user(&format!("u{i}@x"), &format!("user {i}")));
        }
        inst
    }

    fn merge_clause() -> Clause {
        parse_clause("S1: X = Y <= X in UserS, Y in UserS, X.email = Y.email").unwrap()
    }

    fn apply(inst: &mut Instance, batch: MutationBatch) -> BatchDelta {
        inst.apply_batch(&batch).expect("batch applies")
    }

    #[test]
    fn untouched_constraints_are_skipped() {
        let mut inst = setup();
        inst.insert_fresh(
            &ClassName::new("OtherS"),
            Value::record([("x", Value::int(1))]),
        );
        let clause = merge_clause();
        let batch = MutationBatch::new().insert("OtherS", Value::record([("x", Value::int(2))]));
        let delta = apply(&mut inst, batch);
        let dbs = Databases::new(&[&inst]);
        let check = check_batch(
            &[&clause],
            &dbs,
            &delta,
            Parallelism::sequential(),
            &BTreeSet::new(),
        )
        .unwrap();
        assert_eq!(check.certificate.entries[0].mode, CheckMode::Skipped);
        assert!(check.violations.is_empty());
    }

    #[test]
    fn clean_inserts_stay_in_delta_mode_and_match_the_full_check() {
        let mut inst = setup();
        let clause = merge_clause();
        let batch = MutationBatch::new().insert("UserS", user("fresh@x", "fresh"));
        let delta = apply(&mut inst, batch);
        let dbs = Databases::new(&[&inst]);
        let check = check_batch(
            &[&clause],
            &dbs,
            &delta,
            Parallelism::sequential(),
            &BTreeSet::new(),
        )
        .unwrap();
        assert_eq!(check.certificate.entries[0].mode, CheckMode::Delta);
        assert!(check.certificate.entries[0].probes >= 1);
        assert_eq!(
            check.violations,
            crate::constraints::check_constraints(&[&clause], &dbs).unwrap()
        );
    }

    #[test]
    fn duplicate_key_escalates_to_a_canonical_full_check() {
        let mut inst = setup();
        let clause = merge_clause();
        let batch = MutationBatch::new().insert("UserS", user("u3@x", "imposter"));
        let delta = apply(&mut inst, batch);
        let dbs = Databases::new(&[&inst]);
        let check = check_batch(
            &[&clause],
            &dbs,
            &delta,
            Parallelism::sequential(),
            &BTreeSet::new(),
        )
        .unwrap();
        assert_eq!(check.certificate.entries[0].mode, CheckMode::Full);
        let full = crate::constraints::check_constraints(&[&clause], &dbs).unwrap();
        assert!(!full.is_empty());
        assert_eq!(check.violations, full);
    }

    #[test]
    fn certificates_round_trip_and_reject_tampering() {
        let mut inst = setup();
        let clause = merge_clause();
        let batch = MutationBatch::new().insert("UserS", user("u5@x", "imposter"));
        let delta = apply(&mut inst, batch);
        let dbs = Databases::new(&[&inst]);
        let check = check_batch(
            &[&clause],
            &dbs,
            &delta,
            Parallelism::sequential(),
            &BTreeSet::new(),
        )
        .unwrap();
        let bytes = check.certificate.encode();
        let decoded = ConstraintCertificate::decode(&bytes).unwrap();
        assert_eq!(decoded, check.certificate);
        assert_eq!(decoded.encode(), bytes);
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(
                ConstraintCertificate::decode(&bad).is_err(),
                "flip at byte {at} must be rejected"
            );
        }
        assert!(recheck(&check.certificate, &[&clause], &dbs).is_ok());
    }

    #[test]
    fn recheck_rejects_a_doctored_certificate() {
        let mut inst = setup();
        let clause = merge_clause();
        let batch = MutationBatch::new().insert("UserS", user("u7@x", "imposter"));
        let delta = apply(&mut inst, batch);
        let dbs = Databases::new(&[&inst]);
        let check = check_batch(
            &[&clause],
            &dbs,
            &delta,
            Parallelism::sequential(),
            &BTreeSet::new(),
        )
        .unwrap();
        let mut doctored = check.certificate.clone();
        doctored.entries[0].violations.clear();
        assert!(matches!(
            recheck(&doctored, &[&clause], &dbs),
            Err(EngineError::Certificate(_))
        ));
    }

    #[test]
    fn suspect_constraints_are_rechecked_in_full() {
        let mut inst = setup();
        let clause = merge_clause();
        let batch = MutationBatch::new().insert("UserS", user("u9@x", "imposter"));
        apply(&mut inst, batch);
        // A later batch touching nothing related: without the suspect flag
        // the violated constraint would be skipped.
        let other = MutationBatch::new().insert("OtherS", Value::record([("x", Value::int(1))]));
        let delta = apply(&mut inst, other);
        let dbs = Databases::new(&[&inst]);
        let skipped = check_batch(
            &[&clause],
            &dbs,
            &delta,
            Parallelism::sequential(),
            &BTreeSet::new(),
        )
        .unwrap();
        assert_eq!(skipped.certificate.entries[0].mode, CheckMode::Skipped);
        let suspects: BTreeSet<usize> = [0].into_iter().collect();
        let forced = check_batch(
            &[&clause],
            &dbs,
            &delta,
            Parallelism::sequential(),
            &suspects,
        )
        .unwrap();
        assert_eq!(forced.certificate.entries[0].mode, CheckMode::Full);
        assert!(!forced.violations.is_empty());
    }

    /// Seeded detection is the full check restricted to one changed object:
    /// over the constrained workload's clean, key-violating and
    /// existence-violating batches, for every constraint the planner seeds,
    /// the violations found through an object's seeds are exactly the full
    /// check's violations that object takes part in — so "some seed is
    /// dirty" and "the full list names a changed object" cannot disagree.
    #[test]
    fn seeded_detection_is_the_full_check_restricted_to_each_changed_object() {
        use workloads::constrained::{self, ConstrainedGen, ConstrainedParams};

        let program = constrained::program();
        let mut clauses: Vec<Clause> = program
            .source_constraints()
            .into_iter()
            .map(|(_, clause)| clause.clone())
            .collect();
        for extra in [
            "G1: U.tier < 99 <= U in UserS",
            "G2: P.nick = Q.nick <= P in ProfileS, Q in ProfileS, P.user = Q.user",
        ] {
            clauses.push(parse_clause(extra).unwrap());
        }
        let mut inst = constrained::generate_source(&ConstrainedParams::default());
        let mut gen = ConstrainedGen::new(&inst, 7);
        let ghost = Oid::new(ClassName::new("UserS"), 9_999_999);
        let (mut seeded_plans, mut dirty_plans) = (0, BTreeSet::new());
        for round in 0..48 {
            // Violating batches are checked on a scratch copy, so the
            // generator's shadow stays in step with `inst`.
            let mut scratch = inst.clone();
            let (state, batch) = match round % 4 {
                1 => (&mut scratch, gen.violating_batch()),
                3 => {
                    let orphan = Value::record([
                        ("nick", Value::str("orphan")),
                        ("user", Value::Oid(ghost.clone())),
                    ]);
                    (
                        &mut scratch,
                        MutationBatch::new().insert("ProfileS", orphan),
                    )
                }
                _ => (&mut inst, gen.next_batch(6)),
            };
            let delta = apply(state, batch);
            let dbs = Databases::new(&[&*state]);
            for (idx, clause) in clauses.iter().enumerate() {
                let Plan::Seeded { seeds } = plan_constraint(idx, clause, &delta, &BTreeSet::new())
                else {
                    continue;
                };
                seeded_plans += 1;
                let (full, _) = check_constraint_counted(clause, &dbs, Bindings::new()).unwrap();
                let mut dirty = false;
                for oid in seeds.iter().map(|(_, oid)| oid).collect::<BTreeSet<_>>() {
                    let mut through_seeds = Vec::new();
                    for (var, _) in seeds.iter().filter(|(_, seed)| seed == oid) {
                        let seed = Bindings::from([(var.clone(), Value::Oid(oid.clone()))]);
                        through_seeds
                            .extend(check_constraint_counted(clause, &dbs, seed).unwrap().0);
                    }
                    let in_full: Vec<&Violation> =
                        full.iter().filter(|v| v.oids.contains(oid)).collect();
                    assert!(
                        through_seeds.iter().all(|v| in_full.contains(&v))
                            && in_full.iter().all(|v| through_seeds.contains(v)),
                        "round {round}, {:?}, {oid}: seeded {through_seeds:?} vs full {in_full:?}",
                        clause.label
                    );
                    dirty |= !through_seeds.is_empty();
                }
                assert_eq!(detect_seeded(&dbs, clause, &seeds).unwrap().dirty, dirty);
                if dirty {
                    dirty_plans.insert(clause.label.clone().unwrap());
                }
            }
        }
        // Plans were seeded throughout, and every seeded constraint was
        // caught dirty at least once.
        assert!(seeded_plans > 48);
        assert_eq!(Vec::from_iter(dirty_plans), ["G1", "G2", "S2"]);
    }
}
