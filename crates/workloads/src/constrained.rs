//! E12: constraint-dominated mutation traffic over a registry source.
//!
//! The incremental constraint checker (PR 9) needs a workload whose cost is
//! dominated by *validation*, not by view maintenance: a source carrying one
//! of each constraint family the checker plans differently —
//!
//! * `S1` — a **merge key** on `UserS.email` (two users sharing an email are
//!   the same user), checked by attribute-index probes;
//! * `S2` — an **existence** constraint (every profile's `user` reference is
//!   a live `UserS` member), checked by seeded body re-matching;
//! * `S3` — a **Skolem key** on `AccountS.code`, checked by index probes
//!   against the key extent.
//!
//! The target side is deliberately minimal (one class, one key) so per-batch
//! time measures the checker. [`ConstrainedGen`] produces clean traffic —
//! fresh unique emails/codes, tier updates, profile inserts and removals —
//! that keeps every constraint satisfied, so an enforcing pipeline commits
//! every batch; [`ConstrainedGen::violating_batch`] produces a duplicate
//! email insert for the rejection paths.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wol_lang::program::{Program, SchemaBinding};
use wol_model::{ClassName, Instance, KeyExpr, KeySpec, MutationBatch, Oid, Schema, Type, Value};

/// The registry source schema: users, profiles referencing users, accounts.
pub(crate) fn source_schema() -> Schema {
    Schema::new("registry")
        .with_class(
            "UserS",
            Type::record([
                ("email", Type::str()),
                ("name", Type::str()),
                ("tier", Type::int()),
            ]),
        )
        .with_class(
            "ProfileS",
            Type::record([("nick", Type::str()), ("user", Type::class("UserS"))]),
        )
        .with_class(
            "AccountS",
            Type::record([("code", Type::str()), ("region", Type::str())]),
        )
}

/// The minimal directory target schema: one class, keyed by email.
pub(crate) fn target_schema() -> Schema {
    Schema::new("directory").with_class(
        "UserD",
        Type::record([("email", Type::str()), ("name", Type::str())]),
    )
}

/// The transformation (`T1`, key `K1`) plus the three source constraints
/// (`S1` merge key, `S2` existence, `S3` Skolem key) described in the module
/// docs.
pub(crate) fn program_text() -> &'static str {
    "T1: X in UserD, X.email = E, X.name = N <= U in UserS, E = U.email, N = U.name;\n\
     K1: X = Mk_UserD(E) <= X in UserD, E = X.email;\n\
     S1: X = Y <= X in UserS, Y in UserS, X.email = Y.email;\n\
     S2: U in UserS <= P in ProfileS, U = P.user;\n\
     S3: A = Mk_AccountS(C) <= A in AccountS, C = A.code;"
}

/// The registry-to-directory program.
pub fn program() -> Program {
    let target_keys = KeySpec::new().with_key("UserD", KeyExpr::path("email"));
    Program::new(
        "registry_to_directory",
        vec![SchemaBinding::new(source_schema())],
        SchemaBinding::keyed(target_schema(), target_keys),
    )
    .with_text(program_text())
}

/// Parameters of the registry generator.
#[derive(Clone, Copy, Debug)]
pub struct ConstrainedParams {
    /// Number of users (each with a unique email).
    pub users: usize,
    /// Number of profiles (each referencing some user).
    pub profiles: usize,
    /// Number of accounts (each with a unique code).
    pub accounts: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ConstrainedParams {
    fn default() -> Self {
        ConstrainedParams {
            users: 60,
            profiles: 90,
            accounts: 60,
            seed: 12,
        }
    }
}

impl ConstrainedParams {
    /// The E12 bench shape scaled `factor`×: extents large enough that a
    /// full-scan re-check is measurably more expensive than delta probes.
    pub fn scaled(factor: usize) -> Self {
        ConstrainedParams {
            users: 400 * factor,
            profiles: 600 * factor,
            accounts: 400 * factor,
            seed: 12,
        }
    }
}

const REGIONS: [&str; 4] = ["eu", "us", "ap", "sa"];

/// The `tier` value marking [`ConstrainedGen::violating_batch`]'s imposter
/// user, so consumers can find (and remove) it after committing the batch.
pub const IMPOSTER_TIER: i64 = 99;

/// Generate a registry instance satisfying `S1`–`S3`: emails and codes are
/// unique by construction, every profile references a generated user.
pub fn generate_source(params: &ConstrainedParams) -> Instance {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut instance = Instance::new("registry");
    let user_s = ClassName::new("UserS");
    let profile_s = ClassName::new("ProfileS");
    let account_s = ClassName::new("AccountS");
    let mut users: Vec<Oid> = Vec::with_capacity(params.users);
    for u in 0..params.users {
        users.push(instance.insert_fresh(
            &user_s,
            Value::record([
                ("email", Value::from(format!("user{u}@example.org"))),
                ("name", Value::from(format!("User {u}"))),
                ("tier", Value::int(rng.gen_range(0..3))),
            ]),
        ));
    }
    for p in 0..params.profiles {
        let user = users[rng.gen_range(0..users.len().max(1))].clone();
        instance.insert_fresh(
            &profile_s,
            Value::record([
                ("nick", Value::from(format!("nick-{p}"))),
                ("user", Value::Oid(user)),
            ]),
        );
    }
    for a in 0..params.accounts {
        instance.insert_fresh(
            &account_s,
            Value::record([
                ("code", Value::from(format!("AC-{a:06}"))),
                (
                    "region",
                    Value::from(REGIONS[rng.gen_range(0..REGIONS.len())]),
                ),
            ]),
        );
    }
    instance
}

/// Deterministic constraint-clean mutation traffic over a registry source.
///
/// Like [`crate::traffic::TrafficGen`], owns a shadow copy it advances batch
/// by batch so every generated operation is valid against the consumer's
/// pre-batch state — and additionally keeps `S1`–`S3` satisfied: inserted
/// emails and codes are globally fresh, removals only ever hit profiles
/// (users stay referenceable), and user updates change `tier`/`name` but
/// never `email`.
pub struct ConstrainedGen {
    shadow: Instance,
    rng: StdRng,
    fresh: u64,
    tag: String,
    user_s: ClassName,
    profile_s: ClassName,
    account_s: ClassName,
}

impl ConstrainedGen {
    /// Start a stream against (a shadow copy of) `source`. The same
    /// `(source, seed)` pair always yields the same batches.
    pub fn new(source: &Instance, seed: u64) -> ConstrainedGen {
        ConstrainedGen {
            shadow: source.clone(),
            rng: StdRng::seed_from_u64(seed),
            fresh: 0,
            tag: format!("{seed:x}"),
            user_s: ClassName::new("UserS"),
            profile_s: ClassName::new("ProfileS"),
            account_s: ClassName::new("AccountS"),
        }
    }

    /// The stream's view of the source after every batch produced so far.
    pub fn shadow(&self) -> &Instance {
        &self.shadow
    }

    /// Produce the next constraint-clean batch of up to `ops` operations and
    /// advance the shadow past it. Each victim is touched at most once per
    /// batch.
    pub fn next_batch(&mut self, ops: usize) -> MutationBatch {
        let mut batch = MutationBatch::new();
        let mut used: Vec<Oid> = Vec::new();
        for _ in 0..ops {
            batch = self.push_op(batch, &mut used);
        }
        self.shadow
            .apply_batch(&batch)
            .expect("generated batch applies to its own shadow");
        batch
    }

    /// A one-op batch violating `S1`: a second user object carrying a live
    /// user's email (and name, so the duplicate pair still agrees on every
    /// attribute the target projects — only the constraint is broken, not
    /// the transformation). The imposter is marked with `tier` 99. Does
    /// **not** advance the shadow — the batch is meant for an enforcing
    /// pipeline that rejects (reverts) it; a reporting consumer must
    /// reconcile its own copy.
    pub fn violating_batch(&mut self) -> MutationBatch {
        let victim = self
            .pick(&self.user_s.clone(), &[])
            .expect("source holds at least one user");
        let mut value = self.shadow.value(&victim).expect("picked live").clone();
        if let Value::Record(fields) = &mut value {
            fields.insert("tier".into(), Value::int(IMPOSTER_TIER));
        }
        MutationBatch::new().insert(self.user_s.clone(), value)
    }

    fn push_op(&mut self, batch: MutationBatch, used: &mut Vec<Oid>) -> MutationBatch {
        match self.rng.gen_range(0..10u32) {
            // Fresh user: globally unique email (S1-safe).
            0 | 1 => {
                let n = self.next_fresh();
                batch.insert(
                    self.user_s.clone(),
                    Value::record([
                        (
                            "email",
                            Value::from(format!("fresh-{}-{n}@example.org", self.tag)),
                        ),
                        ("name", Value::from(format!("Fresh {}-{n}", self.tag))),
                        ("tier", Value::int(self.rng.gen_range(0..3))),
                    ]),
                )
            }
            // Fresh account: globally unique code (S3-safe).
            2 | 3 => {
                let n = self.next_fresh();
                batch.insert(
                    self.account_s.clone(),
                    Value::record([
                        ("code", Value::from(format!("TC-{}-{n:06}", self.tag))),
                        (
                            "region",
                            Value::from(REGIONS[self.rng.gen_range(0..REGIONS.len())]),
                        ),
                    ]),
                )
            }
            // Fresh profile referencing a live user (S2-safe; referencing a
            // user touched earlier in this batch is fine — updates keep it
            // live).
            4 | 5 => match self.pick(&self.user_s.clone(), &[]) {
                Some(user) => {
                    let n = self.next_fresh();
                    batch.insert(
                        self.profile_s.clone(),
                        Value::record([
                            ("nick", Value::from(format!("tnick-{}-{n}", self.tag))),
                            ("user", Value::Oid(user)),
                        ]),
                    )
                }
                None => batch,
            },
            // Tier bump on a live user: email untouched, so S1 stays exact.
            6 | 7 => match self.pick(&self.user_s.clone(), used) {
                Some(victim) => {
                    let mut value = self.shadow.value(&victim).expect("picked live").clone();
                    if let Value::Record(fields) = &mut value {
                        fields.insert("tier".into(), Value::int(self.rng.gen_range(0..5)));
                    }
                    used.push(victim.clone());
                    batch.update(victim, value)
                }
                None => batch,
            },
            // Region move on a live account: code untouched (S3-safe).
            8 => match self.pick(&self.account_s.clone(), used) {
                Some(victim) => {
                    let mut value = self.shadow.value(&victim).expect("picked live").clone();
                    if let Value::Record(fields) = &mut value {
                        fields.insert(
                            "region".into(),
                            Value::from(REGIONS[self.rng.gen_range(0..REGIONS.len())]),
                        );
                    }
                    used.push(victim.clone());
                    batch.update(victim, value)
                }
                None => batch,
            },
            // Remove a profile: the only removal in the mix, so S2's
            // referenced users are never deleted.
            _ => match self.pick(&self.profile_s.clone(), used) {
                Some(victim) => {
                    used.push(victim.clone());
                    batch.remove(victim)
                }
                None => batch,
            },
        }
    }

    fn next_fresh(&mut self) -> u64 {
        self.fresh += 1;
        self.fresh
    }

    /// A deterministic pick from the class extent, excluding `used` victims.
    fn pick(&mut self, class: &ClassName, used: &[Oid]) -> Option<Oid> {
        let candidates: Vec<&Oid> = self
            .shadow
            .extent(class)
            .filter(|oid| !used.contains(oid))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let index = self.rng.gen_range(0..candidates.len());
        Some(candidates[index].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_engine::{check_constraints, Databases};
    use wol_lang::Clause;

    fn source_constraint_clauses(program: &Program) -> Vec<Clause> {
        program
            .source_constraints()
            .into_iter()
            .map(|(_, c)| c.clone())
            .collect()
    }

    #[test]
    fn schemas_and_program_validate() {
        assert!(source_schema().validate().is_ok());
        assert!(target_schema().validate().is_ok());
        program().validate().unwrap();
        // The program carries exactly the three constraint families.
        assert_eq!(source_constraint_clauses(&program()).len(), 3);
    }

    #[test]
    fn generated_source_satisfies_every_constraint() {
        let source = generate_source(&ConstrainedParams::default());
        wol_model::validate::check_instance(&source, &source_schema()).unwrap();
        let clauses = source_constraint_clauses(&program());
        let refs = [&source];
        let dbs = Databases::new(&refs);
        let clause_refs: Vec<&Clause> = clauses.iter().collect();
        let violations = check_constraints(&clause_refs, &dbs).unwrap();
        assert!(violations.is_empty(), "seed data violates: {violations:?}");
    }

    #[test]
    fn clean_traffic_stays_clean() {
        let source = generate_source(&ConstrainedParams::default());
        let clauses = source_constraint_clauses(&program());
        let mut gen = ConstrainedGen::new(&source, 5);
        for _ in 0..25 {
            gen.next_batch(6);
        }
        let shadow = gen.shadow().clone();
        let refs = [&shadow];
        let dbs = Databases::new(&refs);
        let clause_refs: Vec<&Clause> = clauses.iter().collect();
        let violations = check_constraints(&clause_refs, &dbs).unwrap();
        assert!(
            violations.is_empty(),
            "clean stream violated: {violations:?}"
        );
    }

    #[test]
    fn violating_batch_trips_the_merge_key() {
        let source = generate_source(&ConstrainedParams::default());
        let clauses = source_constraint_clauses(&program());
        let mut gen = ConstrainedGen::new(&source, 5);
        let mut copy = source.clone();
        copy.apply_batch(&gen.violating_batch()).unwrap();
        let refs = [&copy];
        let dbs = Databases::new(&refs);
        let clause_refs: Vec<&Clause> = clauses.iter().collect();
        let violations = check_constraints(&clause_refs, &dbs).unwrap();
        assert!(
            violations.iter().any(|v| v.clause == "S1"),
            "expected an S1 violation, got: {violations:?}"
        );
    }

    #[test]
    fn streams_are_deterministic() {
        let source = generate_source(&ConstrainedParams::default());
        let mut a = ConstrainedGen::new(&source, 9);
        let mut b = ConstrainedGen::new(&source, 9);
        for _ in 0..15 {
            assert_eq!(a.next_batch(5).ops, b.next_batch(5).ops);
        }
        assert!(a.shadow().deep_eq_report(b.shadow()).is_none());
    }
}
