//! Incremental view maintenance: the standing [`MaterializedPipeline`].
//!
//! A [`crate::Morphase`] run is a one-shot function from source instances to
//! a target instance. This module keeps that function's output *standing*:
//! after an initial build, the pipeline accepts
//! [`MutationBatch`]es against its sources and
//! repairs the target in place, guaranteeing at every batch boundary that
//! the maintained target is **bit-identical** (object identities included)
//! to what a from-scratch run over the mutated sources would produce.
//!
//! # Maintenance semantics
//!
//! A WOL target is a function of the *set* of clause instantiations: an
//! object is identified by its Skolem key and partial clauses merge fields,
//! so the order in which the executor emits rows cannot change a successful
//! target, and the maintainer never depends on it. The guarantee rests on
//! three pillars.
//!
//! **The key is the unique identity tuple.** Every compiled query is
//! analysed once per (re-)plan:
//!
//! * A row's key is the tuple of object identities its scans bound, in
//!   variable-name order ([`cpl::Plan::scan_classes`]). A plan emits at most
//!   one row per tuple and source identities are never reused, so the key
//!   names its row across runs, whichever join order the planner chose. The
//!   row cache is a map over these keys; its order is only the order rows
//!   replay in, which makes the first replay error deterministic.
//! * A cached row is the compiled plan's whole output row, and replay
//!   evaluates only the insert actions on it; the cache keeps what each row
//!   contributed. A plan that mints — in a `Map` binding, a filter or a join
//!   key — is cached like any other: `Mk_C(k)` is a function of `(C, k)`
//!   ([`wol_model::skolem_id`]) and every build mints through a fresh,
//!   unseeded factory, so a row derived under any scan restriction binds
//!   exactly the identities a fresh run binds for it.
//! * What a query reads is the read set ([`wol_engine::ReadSet`]) of the
//!   normal clause it was compiled from — the one walk the federation and
//!   the incremental constraint checker read too. (The planner's witness
//!   fold only swaps a scan for another scan of its class, so the clause
//!   reads what its query reads.) A projection off a member-bound variable
//!   is covered by the row key; every other projection base is typed by
//!   wol-lang's checker over the clause body, and a base whose type is a
//!   class is a *foreign read* of that class. A base with no type is an
//!   internal error at build time.
//! * A foreign read is inverted once, at build time. When its base is a
//!   reference chain `X.a₁…aₙ` off a scan variable `X`, each proper prefix
//!   typed as a class — genome's `G7` reads `S.clone.name`, the base
//!   `S.clone` one hop off its markers — the chain is a [`cpl::RefChain`]:
//!   the hops `(C₀, a₁) … (Cₙ₋₁, aₙ)` through the source schemas. A
//!   variable no member atom binds stands for the term a body equation
//!   equates it with, so `V = S.clone, C = V.name` reads the same chain.
//!   Any other base (`R.c` off a record `R = (c = S.clone)`, say) reaches
//!   the whole extent of one scanned class, which sweeps the whole query.
//! * **Foreign reads and rotations share one inversion**,
//!   [`cpl::invert_chain`]: identities of the chain's last class map back
//!   to the scanned objects that reach them, hop by hop, with
//!   [`Instance::lookup_by_attrs`] on the post-batch sources (an object the
//!   batch left as it was still holds the reference it held). A foreign
//!   read inverts the batch's changed objects of the read class; a
//!   rotation's probe join inverts what a key lookup in the chain's last
//!   class finds. The query's chains ride on the context its rotations run
//!   under ([`EvalCtx::set_reference_chains`]), so a rotation pinned to a
//!   changed clone drives `G7` from that clone and reaches the markers whose
//!   `S.clone.name` equals its name — through `CloneS` by `name`, then
//!   `MarkerS` by `clone` — instead of scanning every marker.
//!
//! When a batch lands, each query sees the batch's delta with the scanned
//! objects its foreign reads reach from the batch's inserted, updated and
//! removed objects joined as *updated*: their rows read what changed, so
//! they are stale although their own values are not. A reference that
//! dangled and now resolves is reached too, by the insert that resolves it.
//! Rows to **remove** are then found by identity: any cached row whose key
//! contains a stale (updated or removed) identity of that delta. Rows to
//! **add** come from [`wol_engine::delta_rotations`]: one semi-naive
//! evaluation of the plan per changed slot, with scan restrictions
//! partitioning exactly the rows that bind at least one changed identity. A
//! row that binds no changed identity reads nothing the batch changed, so
//! it is neither swept nor derived. A normal clause's body holds only
//! source atoms, so no compiled query scans the target, and every compiled
//! program maintains in place.
//!
//! **The ledger settles.** `Mk_C(k)` is derived from `(C, k)`
//! ([`wol_model::skolem_id`]), so a replayed row mints exactly the
//! identities a fresh run mints for it. The pipeline keeps, per object, the
//! multiset of records rows contribute to it, and that ledger is the
//! target's only source. A build replays every row and settles every
//! identity the ledger holds; a batch removes its swept rows' contributions,
//! replays its added rows and settles the identities their contributions
//! name. An object settles through [`wol_model::Record::merge`] — the one
//! definition a fresh run's apply settles through too — to the union of its
//! contributions, or, when no row contributes to it any more, out of the
//! target.
//!
//! **Conflicts fail in place.** When rows assert different values for one
//! attribute of one object, settling fails with an error naming the least
//! conflicting `(object, attribute)`: the same at every thread count,
//! planned or raw, and the same error a fresh run over the same
//! sources reports. A failing batch poisons the pipeline, and a build over
//! conflicting sources fails.
//!
//! **Each source class lives in one source.** An identity carries its class,
//! and no class has objects in two source instances: the pipeline refuses
//! such a source set where it enters (the same check every
//! [`crate::Morphase`] run makes), and [`MaterializedPipeline::apply_batch_to`]
//! refuses an insert into one source of a class another source holds. So an
//! identity names one object of one source, and a batch insert mints past
//! every identity its source holds (one the same batch removed and mints
//! again is reported updated, so its old rows are swept). A row derived for
//! a batch can therefore never share its key with a cached row that survived
//! the sweep: every batch repairs in place, and a collision is an internal
//! error. The program-only front half
//! (meta-data generation, validation, the normal form) is built once, at
//! construction ([`crate::pipeline`]'s `Front`), and the initial build and
//! every oracle run borrow it.
//!
//! Readers see batch boundaries only. The pipeline itself is single-writer;
//! the concurrent front end ([`crate::PipelineService`]) runs it on a
//! maintainer thread and publishes an immutable snapshot (`Arc<Instance>`)
//! after each successful batch. Readers clone the `Arc` under a read lock —
//! they never observe a half-repaired target, and a panicked maintainer
//! propagates at shutdown instead of hanging its clients.
//!
//! Durability is the one durable store, [`storage::persist::PipelineJournal`],
//! keeping the *source*: batch 0 is a full dump, every applied batch is one
//! commit of what the batch changed, and recovery stands the pipeline up
//! over the recovered source — valid precisely because the standing state
//! always equals a fresh build over the current sources.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use cpl::exec::{layout, run_slots, ExecStats, LoweredInsert};
use cpl::expr::{EvalCtx, SlotRow};
use cpl::{Plan, Query, RefChain};
use storage::persist::PipelineJournal;
use wol_engine::{check_batch, BatchCheck, Databases, EngineError};
use wol_engine::{delta_rotations, NormalClause, ReadSet, Slot};
use wol_lang::ast::{Atom, Var};
use wol_lang::program::Program;
use wol_lang::{Clause, Term};
use wol_model::{
    BatchDelta, BatchPreimages, ClassDelta, ClassName, Conflict, Fingerprint, Instance, Label,
    Mutation, MutationBatch, Oid, Record, Schema, SkolemFactory, SourceOp, Type, Value,
};

use crate::pipeline::{
    plan_queries, run_pipeline, verify_target_instance, BatchConstraintMode, DurableOptions, Front,
    MorphaseRun, PipelineOptions, Rows,
};
use crate::{MorphaseError, Result};

/// What one applied batch cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOutcome {
    /// Stale rows swept, delta rows replayed, touched objects repaired.
    InPlace,
    /// Never constructed: each source class lives in one source, so no
    /// batch derives a row colliding with a cached one. The benchmark
    /// matches on it. Kept only for the benchmark's frozen surface (ROADMAP item 1A).
    Rebuild,
    /// Never constructed: every compiled program maintains in place. The
    /// benchmark matches on it. Kept only for the benchmark's frozen surface (ROADMAP item 1A).
    FullRerun,
}

/// Per-batch report returned by [`MaterializedPipeline::apply_batch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchReport {
    /// How the batch was absorbed.
    pub outcome: BatchOutcome,
    /// Cached query rows swept by the batch.
    pub rows_removed: u64,
    /// Query rows (re-)derived and replayed for the batch.
    pub rows_added: u64,
    /// Target objects whose record was written (inserted, updated or
    /// removed).
    pub objects_repaired: u64,
    /// The batch's constraint check and certificate, when
    /// [`BatchConstraintMode`] is not `Off`. In `Report` mode a committed
    /// batch may carry violations here; in `Enforce` mode a violating batch
    /// is rejected instead of reported.
    pub constraints: Option<BatchCheck>,
}

/// Cumulative maintenance statistics. Deterministic for a given program,
/// sources, and batch stream — independent of worker-pool size.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MaintainStats {
    /// Batches applied (including empty ones).
    pub batches: u64,
    /// Batches absorbed in place.
    pub inplace_batches: u64,
    /// Cached query rows swept across all batches.
    pub rows_removed: u64,
    /// Query rows replayed across all batches.
    pub rows_added: u64,
    /// Target objects written across all in-place batches.
    pub objects_repaired: u64,
    /// Batches rejected by [`BatchConstraintMode::Enforce`] (not counted in
    /// `batches`; sources and target were reverted to the pre-batch state).
    pub rejected_batches: u64,
    /// Constraints validated (delta or full mode) across all checked batches,
    /// including rejected ones.
    pub constraints_checked: u64,
    /// Constraints skipped by read-set analysis across all checked batches.
    pub constraints_skipped: u64,
    /// Objects/bindings examined by constraint checks across all batches.
    pub constraint_objects: u64,
    /// Attribute-index probes issued by constraint checks across all batches.
    pub constraint_probes: u64,
    /// Constraint violations found across all checked batches (reported or
    /// rejected).
    pub constraint_violations: u64,
    /// Execution statistics of all maintenance plan evaluations (the
    /// initial fill and the rotations).
    pub delta_exec: ExecStats,
}

/// Every target identity's contributions: the multiset of records rows
/// contribute to it, each distinct record with the number of rows that
/// contribute it.
#[derive(Clone, Debug, Default)]
struct TargetLedger {
    contributions: BTreeMap<Oid, BTreeMap<Record, u64>>,
}

impl TargetLedger {
    fn add(&mut self, oid: &Oid, record: &Record) {
        let records = self.contributions.entry(oid.clone()).or_default();
        *records.entry(record.clone()).or_insert(0) += 1;
    }

    fn remove(&mut self, oid: &Oid, record: &Record) -> Result<()> {
        let underflow =
            || MorphaseError::Execution(format!("support underflow for target object {oid}"));
        let records = self.contributions.get_mut(oid).ok_or_else(underflow)?;
        let count = records.get_mut(record).ok_or_else(underflow)?;
        *count -= 1;
        if *count == 0 {
            records.remove(record);
        }
        Ok(())
    }

    /// What `oid`'s contributions settle to ([`Record::merge`], the
    /// definition a fresh run's apply settles through): their union, or
    /// `None` when no row contributes to it any more.
    fn settled(&self, oid: &Oid) -> Result<Option<Record>> {
        let mut records = self
            .contributions
            .get(oid)
            .into_iter()
            .flat_map(BTreeMap::keys);
        let Some(first) = records.next() else {
            return Ok(None);
        };
        let mut settled = first.clone();
        settled.merge(records).map_err(|label| {
            cpl::CplError::Conflict(Conflict {
                oid: oid.clone(),
                label,
            })
        })?;
        Ok(Some(settled))
    }

    /// Settle `oids`, in ascending order, into `target` and return how many
    /// objects were written. The first conflict fails the settle: it names
    /// the least conflicting `(object, attribute)`.
    fn settle(&mut self, oids: &BTreeSet<Oid>, target: &mut Instance) -> Result<u64> {
        let mut written = 0;
        for oid in oids {
            match self.settled(oid)? {
                None => {
                    self.contributions.remove(oid);
                    if target.remove(oid).is_some() {
                        target.forget_empty_class(oid.class());
                        written += 1;
                    }
                }
                Some(record) => match target.value(oid) {
                    Some(existing) if existing.as_record() == Some(&record) => {}
                    Some(_) => {
                        target.update(oid, Value::Record(record))?;
                        written += 1;
                    }
                    None => {
                        target.insert(oid.clone(), Value::Record(record))?;
                        written += 1;
                    }
                },
            }
        }
        Ok(written)
    }
}

/// Per-query maintenance analysis (see the module docs).
#[derive(Clone, Debug)]
struct QueryAnalysis {
    /// Scan slots in variable-name order; the row key is their identity
    /// tuple.
    slots: Vec<Slot>,
    /// Where each slot's identity sits in a plan row.
    key_slots: Vec<usize>,
    /// The compiled plan.
    plan: Plan,
    /// The insert actions, lowered against the plan's layout.
    inserts: Vec<LoweredInsert>,
    /// What the query reads through projections the row key does not cover.
    foreign: Vec<ForeignRead>,
}

/// One foreign read: a projection base, typed as a class, that a query's
/// row key does not cover.
#[derive(Clone, Debug, PartialEq, Eq)]
enum ForeignRead {
    /// The base is a reference chain off a scan variable: an object of the
    /// chain's class is read by the scanned objects whose chain reaches it
    /// (the chain's first class is the variable's).
    Chain(RefChain),
    /// Any other base: it reads an object of class `read`, which every
    /// object of the scanned class `scanned` may reach.
    Whole { read: ClassName, scanned: ClassName },
}

impl ForeignRead {
    /// The class of the objects the base reads.
    fn class(&self) -> &ClassName {
        match self {
            ForeignRead::Chain(chain) => &chain.class,
            ForeignRead::Whole { read, .. } => read,
        }
    }

    /// The scanned objects whose rows read an object of [`Self::class`]
    /// that `changed` inserted, updated or removed, with their class, found
    /// on the post-batch `sources` ([`cpl::invert_chain`], the inversion a
    /// rotation's probe join runs too): an object the batch left as it was
    /// still holds the reference it held before.
    fn readers(&self, changed: &ClassDelta, sources: &[&Instance]) -> (ClassName, Vec<Oid>) {
        let chain = match self {
            ForeignRead::Whole { scanned, .. } => {
                let extent = sources.iter().flat_map(|s| s.extent(scanned));
                return (scanned.clone(), extent.cloned().collect());
            }
            ForeignRead::Chain(chain) => chain,
        };
        let changed = [&changed.inserted, &changed.updated, &changed.removed];
        let mut found: Vec<Oid> = changed.into_iter().flatten().cloned().collect();
        cpl::invert_chain(&chain.hops, sources, &mut found, 0);
        (chain.hops[0].0.clone(), found)
    }
}

/// The foreign reads of `clause`: each uncovered base of its [`ReadSet`]
/// whose type — wol-lang's inference over the clause body, under the
/// program's schemas — is a class. A base is a reference chain `X.a₁…aₙ`
/// off a scan variable `X` when each proper prefix is typed as a class; a
/// variable no member atom binds stands for a term a body equation equates
/// it with (`V = S.clone, C = V.name` reads the chain `S.clone`).
fn foreign_reads(clause: &NormalClause, schemas: &[&Schema]) -> Result<Vec<ForeignRead>> {
    let read = ReadSet::of_normal(clause);
    if read.uncovered.is_empty() {
        return Ok(Vec::new());
    }
    let name = clause.provenance.join("+");
    let render = |base: &Term| wol_lang::render_term(base);
    let body = Clause::new(Vec::new(), clause.body.clone());
    let types = wol_lang::infer_term_types(&body, schemas, read.uncovered.iter().copied())
        .map_err(|e| MorphaseError::Execution(format!("cannot type the reads of `{name}`: {e}")))?;
    let mut classes = Vec::with_capacity(types.len());
    for (base, ty) in read.uncovered.iter().zip(types) {
        let mut ty = ty.ok_or_else(|| {
            let base = render(base);
            MorphaseError::Execution(format!("projection base `{base}` of `{name}` has no type"))
        })?;
        while let Type::Optional(inner) = ty {
            ty = *inner;
        }
        classes.push(match ty {
            Type::Class(class) => Some(class),
            _ => None,
        });
    }
    // A proper prefix of an uncovered base is itself one, and so is a
    // variable a projection reads off: the walk pushes every base it meets
    // on the way down a projection.
    let class_of = |term: &Term| match term {
        Term::Var(var) if read.members.contains_key(var) => Some(read.members[var].clone()),
        _ => classes[read.uncovered.iter().position(|base| *base == term)?].clone(),
    };
    let mut foreign = Vec::new();
    for (base, class) in read.uncovered.iter().zip(&classes) {
        let Some(class) = class.clone() else { continue };
        let read = match (
            chain_hops(base, &read, &clause.body, &class_of, &mut Vec::new()),
            read.members.values().next(),
        ) {
            // The base is a scan variable itself: the row key covers it.
            (Some(hops), _) if hops.is_empty() => continue,
            (Some(hops), _) => ForeignRead::Chain(RefChain { hops, class }),
            (None, Some(&scanned)) => ForeignRead::Whole {
                read: class,
                scanned: scanned.clone(),
            },
            (None, None) => {
                let base = render(base);
                let e =
                    format!("projection base `{base}` of `{name}` reads a class; it scans none");
                return Err(MorphaseError::Execution(e));
            }
        };
        if !foreign.contains(&read) {
            foreign.push(read);
        }
    }
    Ok(foreign)
}

/// The hops `(class of X.a₁…aₖ₋₁, aₖ)` of `term` as a reference chain
/// `X.a₁…aₙ` off a scan variable `X` of `read`, `class_of` typing each
/// prefix. A variable no member atom binds resolves through the first
/// equation of `body` equating it with a chain (`seen` guards against
/// equations that cycle); `None` for anything else.
fn chain_hops<'c>(
    term: &'c Term,
    read: &ReadSet<'c>,
    body: &'c [Atom],
    class_of: &dyn Fn(&Term) -> Option<ClassName>,
    seen: &mut Vec<&'c Var>,
) -> Option<Vec<(ClassName, Label)>> {
    match term {
        Term::Var(var) if read.members.contains_key(var) => Some(Vec::new()),
        Term::Var(var) => {
            if seen.contains(&var) {
                return None;
            }
            seen.push(var);
            body.iter().find_map(|atom| match atom {
                Atom::Eq(Term::Var(v), t) | Atom::Eq(t, Term::Var(v)) if v == var => {
                    chain_hops(t, read, body, class_of, seen)
                }
                _ => None,
            })
        }
        Term::Proj(inner, label) => {
            let mut hops = chain_hops(inner, read, body, class_of, seen)?;
            hops.push((class_of(inner)?, label.clone()));
            Some(hops)
        }
        _ => None,
    }
}

/// `delta` as one query sees it: for each of its foreign reads whose class
/// the batch changed, every scanned object whose rows read a changed object
/// joins as updated — unless the batch inserted it — so the sweep by key
/// removes exactly those rows and the rotations re-derive them.
fn query_delta<'d>(
    analysis: &QueryAnalysis,
    delta: &'d BatchDelta,
    sources: &[&Instance],
) -> Cow<'d, BatchDelta> {
    let mut widened = Cow::Borrowed(delta);
    for read in &analysis.foreign {
        let Some(changed) = delta.class(read.class()).filter(|d| !d.is_empty()) else {
            continue;
        };
        let (class, readers) = read.readers(changed, sources);
        if readers.is_empty() {
            continue;
        }
        let joined = widened.to_mut().classes.entry(class).or_default();
        for oid in readers {
            if !joined.inserted.contains(&oid) {
                joined.updated.insert(oid);
            }
        }
    }
    widened
}

/// Analyse one compiled query for incremental maintenance, given the
/// [`foreign_reads`] of the normal clause it was compiled from.
fn analyze_query(query: Query, foreign: Vec<ForeignRead>) -> Result<QueryAnalysis> {
    let slots: Vec<Slot> = query
        .plan
        .scan_classes()
        .into_iter()
        .map(|(var, class)| Slot::new(var, class))
        .collect();
    let row_layout = layout(&query.plan);
    let key_slots = slots
        .iter()
        .map(|s| {
            row_layout
                .iter()
                .position(|name| *name == s.var)
                .ok_or_else(|| {
                    MorphaseError::Execution(format!(
                        "scan variable `{}` missing from the layout of query `{}`",
                        s.var, query.name
                    ))
                })
        })
        .collect::<Result<_>>()?;
    Ok(QueryAnalysis {
        slots,
        key_slots,
        inserts: LoweredInsert::lower(&query.inserts, &row_layout)?,
        plan: query.plan,
        foreign,
    })
}

/// One cached row of one query's plan.
#[derive(Clone, Debug, Default)]
struct CachedRow {
    /// The plan's output row.
    row: SlotRow,
    /// Target contributions this row's inserts performed, in action order.
    contribs: Vec<(Oid, Record)>,
}

/// One query's cached rows by key.
type RowCache = BTreeMap<Vec<Oid>, CachedRow>;

/// Run the plan under `ctx`'s scan restrictions and add its rows,
/// keyed and with no contributions yet, to `out`.
fn derive(
    analysis: &QueryAnalysis,
    ctx: &mut EvalCtx<'_>,
    exec: &mut ExecStats,
    out: &mut RowCache,
) -> Result<()> {
    for row in run_slots(&analysis.plan, ctx, exec)? {
        let key = analysis
            .slots
            .iter()
            .zip(&analysis.key_slots)
            .map(|(s, &slot)| match row.get(slot) {
                Some(Value::Oid(oid)) => Ok(oid.clone()),
                _ => Err(MorphaseError::Execution(format!(
                    "scan variable `{}` missing from a produced row",
                    s.var
                ))),
            })
            .collect::<Result<_>>()?;
        out.insert(
            key,
            CachedRow {
                row,
                contribs: Vec::new(),
            },
        );
    }
    Ok(())
}

/// Replay rows through the query's insert actions — exactly what the
/// executor evaluates for them — recording each row's contributions and
/// adding their supports to the ledger.
fn replay<'r>(
    analysis: &QueryAnalysis,
    ctx: &mut EvalCtx<'_>,
    ledger: &mut TargetLedger,
    rows: impl IntoIterator<Item = &'r mut CachedRow>,
) -> Result<()> {
    for cached in rows {
        for action in &analysis.inserts {
            // The executor's insert loop propagates every error, bad values
            // included.
            let (oid, record) = action.evaluate(&cached.row, ctx)?;
            ledger.add(&oid, &record);
            cached.contribs.push((oid, record));
        }
    }
    Ok(())
}

/// The standing state of a maintained pipeline.
struct Core {
    analyses: Vec<QueryAnalysis>,
    /// Per-query row caches, parallel to `analyses`.
    caches: Vec<RowCache>,
    ledger: TargetLedger,
    factory: SkolemFactory,
    target: Instance,
}

/// Plan against the sources and build the standing state from scratch over
/// the pipeline's front half, as a fresh run does — statistics, plans, a
/// fresh Skolem factory and the source check (no class has objects in two
/// sources) — without repeating the program-only stages (meta-data,
/// validation, normal form).
fn build_state(
    front: &Front,
    options: PipelineOptions,
    sources: &[Instance],
    exec: &mut ExecStats,
) -> Result<Core> {
    let refs: Vec<&Instance> = sources.iter().collect();
    let augmented = &front.augmented;
    let stats = cpl::Statistics::from_instances(&refs);
    let queries = plan_queries(options, &front.normal, &stats)?;
    front.check_sources(options, &refs)?;
    let schemas = augmented.schemas();
    // Compilation maps normal clauses to queries one to one.
    let analyses = queries
        .into_iter()
        .zip(&front.normal.clauses)
        .map(|(query, clause)| analyze_query(query, foreign_reads(clause, &schemas)?))
        .collect::<Result<Vec<_>>>()?;

    // Fill each row cache from an unrestricted plan run, replay it into the
    // ledger, then settle every identity the ledger holds.
    let mut caches = vec![RowCache::new(); analyses.len()];
    let mut ledger = TargetLedger::default();
    let mut ctx = EvalCtx::new(&refs).with_parallelism(options.parallelism);
    for (analysis, cache) in analyses.iter().zip(&mut caches) {
        derive(analysis, &mut ctx, exec, cache)?;
        replay(analysis, &mut ctx, &mut ledger, cache.values_mut())?;
    }
    let every: BTreeSet<Oid> = ledger.contributions.keys().cloned().collect();
    let mut target = Instance::new(augmented.target.schema.name());
    ledger.settle(&every, &mut target)?;
    verify_target_instance(augmented, &target)?;
    Ok(Core {
        analyses,
        caches,
        ledger,
        factory: std::mem::take(&mut ctx.factory),
        target,
    })
}

/// Absorb one applied batch into the standing state, in place, and report
/// what it cost. On `Err` the pipeline must be poisoned.
fn repair_incremental(
    sources: &[Instance],
    options: PipelineOptions,
    core: &mut Core,
    delta: &BatchDelta,
    exec: &mut ExecStats,
) -> Result<BatchReport> {
    let refs: Vec<&Instance> = sources.iter().collect();
    let mut touched: BTreeSet<Oid> = BTreeSet::new();
    let mut rows_removed = 0u64;
    let mut rows_added = 0u64;
    let deltas: Vec<Cow<'_, BatchDelta>> = (core.analyses.iter())
        .map(|analysis| query_delta(analysis, delta, &refs))
        .collect();

    // Phase A: sweep stale rows out of the caches, dropping their supports.
    for ((analysis, cache), delta) in core.analyses.iter().zip(&mut core.caches).zip(&deltas) {
        let stale: Vec<BTreeSet<Oid>> = analysis
            .slots
            .iter()
            .map(|s| delta.class(&s.class).map(|d| d.stale()).unwrap_or_default())
            .collect();
        if stale.iter().all(BTreeSet::is_empty) {
            continue;
        }
        let mut swept = Vec::new();
        cache.retain(|key, row| {
            let hit = key.iter().zip(&stale).any(|(oid, s)| s.contains(oid));
            if hit {
                swept.push(std::mem::take(row));
            }
            !hit
        });
        rows_removed += swept.len() as u64;
        for (oid, record) in swept.iter().flat_map(|row| &row.contribs) {
            core.ledger.remove(oid, record)?;
            touched.insert(oid.clone());
        }
    }

    // Phase B: derive and replay the added rows, in program order.
    let mut ctx = EvalCtx::new(&refs).with_parallelism(options.parallelism);
    ctx.factory = std::mem::take(&mut core.factory);
    for ((analysis, cache), delta) in core.analyses.iter().zip(&mut core.caches).zip(&deltas) {
        let mut added = RowCache::new();
        let chains = analysis.foreign.iter().filter_map(|read| match read {
            ForeignRead::Chain(chain) => Some(chain.clone()),
            ForeignRead::Whole { .. } => None,
        });
        ctx.set_reference_chains(chains.collect());
        for rotation in delta_rotations(&analysis.slots, delta) {
            for (var, restriction) in rotation.restrictions {
                ctx.restrict_scan(var, restriction);
            }
            let derived = derive(analysis, &mut ctx, exec, &mut added);
            ctx.clear_scan_restrictions();
            derived?;
        }
        // Each source class lives in one source, so every added row binds
        // an identity no surviving row binds (see the module docs).
        if let Some(key) = added.keys().find(|k| cache.contains_key(*k)) {
            return Err(MorphaseError::Execution(format!(
                "derived row {key:?} collides with a surviving cached row"
            )));
        }
        rows_added += added.len() as u64;
        replay(analysis, &mut ctx, &mut core.ledger, added.values_mut())?;
        for (key, row) in added {
            touched.extend(row.contribs.iter().map(|(oid, _)| oid.clone()));
            // One insert per row: `append` would rebuild the whole cache.
            cache.insert(key, row);
        }
    }
    core.factory = std::mem::take(&mut ctx.factory);

    // Phase C: settle every touched object.
    let objects_repaired = core.ledger.settle(&touched, &mut core.target)?;
    Ok(BatchReport {
        outcome: BatchOutcome::InPlace,
        rows_removed,
        rows_added,
        objects_repaired,
        constraints: None,
    })
}

/// Fingerprint identifying which program a maintenance journal belongs to.
/// The journal stores *source* data, so only the dataset-shaping inputs are
/// hashed: program name, schema names, and clause count.
fn maintenance_fingerprint(program: &Program) -> u64 {
    let mut hash = Fingerprint::new();
    hash.eat(b"maintenance");
    hash.eat(program.name.as_bytes());
    hash.eat(program.target.schema.name().as_bytes());
    for binding in &program.sources {
        hash.eat(binding.schema.name().as_bytes());
    }
    hash.eat(&(program.clauses.len() as u64).to_le_bytes());
    hash.finish()
}

/// A standing, incrementally maintained Morphase pipeline (see the module
/// docs for the maintenance semantics).
pub struct MaterializedPipeline {
    /// The program-only front half, built once per pipeline; the build and
    /// every oracle run plan against it.
    front: Front,
    options: PipelineOptions,
    sources: Vec<Instance>,
    core: Core,
    stats: MaintainStats,
    source_classes: BTreeSet<ClassName>,
    /// The augmented program's source constraints, validated per batch when
    /// [`BatchConstraintMode`] is not `Off`.
    constraints: Vec<Clause>,
    /// Indices into `constraints` whose pre-batch cleanliness is unknown:
    /// a committed (`Report`-mode) batch left them violated, so the next
    /// check runs them in full until they come back clean.
    suspects: BTreeSet<usize>,
    journal: Option<PipelineJournal>,
    next_batch: u64,
    recovered: u64,
    poisoned: bool,
}

impl MaterializedPipeline {
    /// Build the pipeline: run the program over `sources` and stand up the
    /// maintenance state.
    pub fn new(
        program: &Program,
        sources: Vec<Instance>,
        options: PipelineOptions,
    ) -> Result<MaterializedPipeline> {
        Self::stand_up(program, sources, options, None, 0, 0)
    }

    /// Build a durable pipeline journalling its (single) source into
    /// `durable.dir`. A journal left by a crashed pipeline for the same
    /// program is recovered: the source is rebuilt from the batch-0 dump
    /// plus every committed batch, and the pipeline stands up over it —
    /// callers re-apply only what [`Self::recovered_batches`] reports
    /// missing. The instance passed in `sources` seeds the journal on first
    /// open and is ignored when recovering.
    pub fn new_durable(
        program: &Program,
        sources: Vec<Instance>,
        options: PipelineOptions,
        durable: &DurableOptions,
    ) -> Result<MaterializedPipeline> {
        let Ok([source]) = <[Instance; 1]>::try_from(sources) else {
            return Err(MorphaseError::Durability(
                "durable maintenance supports exactly one source instance".into(),
            ));
        };
        let source_schema = program
            .sources
            .first()
            .map(|b| b.schema.name().to_string())
            .ok_or_else(|| MorphaseError::Durability("program binds no source schema".into()))?;
        let fingerprint = maintenance_fingerprint(program);
        let (mut journal, recovery) =
            PipelineJournal::open(&durable.dir, fingerprint, &source_schema, durable.fault)?;
        let (mut source, recovered, next_batch) = if recovery.completed > 0 {
            (
                recovery.instance,
                recovery.completed - 1,
                recovery.completed,
            )
        } else {
            // The given source was populated before any log recorded it:
            // batch 0 spells its whole population out.
            let dump: Vec<Mutation> = source
                .all_objects()
                .map(|(oid, value)| Mutation::Insert(oid.clone(), value.clone()))
                .collect();
            journal.append(0, dump, &source, None)?;
            (source, 0, 1)
        };
        source.begin_mutation_log();
        Self::stand_up(
            program,
            vec![source],
            options,
            Some(journal),
            next_batch,
            recovered,
        )
    }

    /// The one constructor: build the front half — the only time this
    /// pipeline validates and normalises its program — then plan and fill
    /// the standing state against it.
    fn stand_up(
        program: &Program,
        sources: Vec<Instance>,
        options: PipelineOptions,
        journal: Option<PipelineJournal>,
        next_batch: u64,
        recovered: u64,
    ) -> Result<MaterializedPipeline> {
        let front = Front::build(options, program)?;
        let mut stats = MaintainStats::default();
        let core = build_state(&front, options, &sources, &mut stats.delta_exec)?;
        Ok(MaterializedPipeline {
            source_classes: Self::source_classes(program),
            constraints: front.source_constraints().into_iter().cloned().collect(),
            front,
            options,
            sources,
            core,
            stats,
            suspects: BTreeSet::new(),
            journal,
            next_batch,
            recovered,
            poisoned: false,
        })
    }

    fn source_classes(program: &Program) -> BTreeSet<ClassName> {
        program
            .sources
            .iter()
            .flat_map(|b| b.schema.class_names())
            .collect()
    }

    /// Apply a mutation batch to source 0 and repair the target.
    pub fn apply_batch(&mut self, batch: &MutationBatch) -> Result<BatchReport> {
        self.apply_batch_to(0, batch)
    }

    /// Apply a mutation batch to the given source and repair the target.
    /// Validation failures (an insert into this source of a class another
    /// source holds among them) and constraint rejections
    /// ([`BatchConstraintMode::Enforce`]) leave the pipeline untouched; any
    /// failure after the source mutated poisons the pipeline (its state may
    /// no longer be consistent), and every later call errors.
    pub fn apply_batch_to(&mut self, source: usize, batch: &MutationBatch) -> Result<BatchReport> {
        if self.poisoned {
            return Err(MorphaseError::Execution(
                "materialized pipeline is poisoned by an earlier failure".into(),
            ));
        }
        self.validate_batch(source, batch)?;
        let mode = self.options.batch_constraints;
        let preimages = if mode == BatchConstraintMode::Enforce {
            self.sources[source].batch_preimages(batch)
        } else {
            BatchPreimages::default()
        };
        let delta = match self.sources[source].apply_batch(batch) {
            Ok(delta) => delta,
            Err(e) => {
                self.poisoned = true;
                return Err(e.into());
            }
        };
        let constraints = if mode == BatchConstraintMode::Off {
            None
        } else {
            self.check_batch_constraints(source, &delta, mode, &preimages)?
        };
        self.stats.batches += 1;
        let report = match self.maintain(&delta) {
            Ok(report) => report,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.commit(self.next_batch, &mut self.sources[source], None) {
                self.poisoned = true;
                return Err(e.into());
            }
            self.next_batch += 1;
        }
        Ok(BatchReport {
            constraints,
            ..report
        })
    }

    /// Run the incremental constraint check for an applied batch. In
    /// `Enforce` mode a violating batch is reverted (sources back to the
    /// pre-batch state, bit-exact) and rejected with the full deterministic
    /// violation list — the pipeline stays healthy. Internal failures
    /// (check or revert errors) poison the pipeline.
    fn check_batch_constraints(
        &mut self,
        source: usize,
        delta: &BatchDelta,
        mode: BatchConstraintMode,
        preimages: &BatchPreimages,
    ) -> Result<Option<BatchCheck>> {
        let check = {
            let clause_refs: Vec<&Clause> = self.constraints.iter().collect();
            let refs: Vec<&Instance> = self.sources.iter().collect();
            let dbs = Databases::new(&refs);
            match check_batch(
                &clause_refs,
                &dbs,
                delta,
                self.options.parallelism,
                &self.suspects,
            ) {
                Ok(check) => check,
                Err(e) => {
                    self.poisoned = true;
                    return Err(MorphaseError::Verification(e.to_string()));
                }
            }
        };
        self.stats.constraints_checked += check.certificate.validated();
        self.stats.constraints_skipped += check.certificate.skipped();
        self.stats.constraint_objects += check.certificate.checked();
        self.stats.constraint_probes += check.certificate.probes();
        self.stats.constraint_violations += check.certificate.violation_count();
        if !check.violations.is_empty() && mode == BatchConstraintMode::Enforce {
            if let Err(e) = self.sources[source].revert_batch(delta, preimages) {
                self.poisoned = true;
                return Err(e.into());
            }
            if self.journal.is_some() {
                // The journal must never see the rejected ops or their
                // reverts — drop them from the mutation log.
                let _ = self.sources[source].take_mutation_log();
            }
            self.stats.rejected_batches += 1;
            return Err(MorphaseError::Verification(
                EngineError::ConstraintsViolated {
                    violations: check.violations,
                }
                .to_string(),
            ));
        }
        // The committed state satisfies every constraint that checked clean;
        // ones still violated (Report mode commits them anyway) lose the
        // pre-clean contract and stay on full re-check until they recover.
        self.suspects = check
            .certificate
            .entries
            .iter()
            .enumerate()
            .filter(|(_, entry)| !entry.violations.is_empty())
            .map(|(idx, _)| idx)
            .collect();
        Ok(Some(check))
    }

    /// Reject malformed batches before mutating anything: unknown classes,
    /// inserts of a class another source holds (each source class lives in
    /// one source), and updates/removes of identities absent from the source
    /// (net of earlier removes in the same batch).
    fn validate_batch(&self, source: usize, batch: &MutationBatch) -> Result<()> {
        let instance = self.sources.get(source).ok_or_else(|| {
            MorphaseError::Execution(format!("no source instance at index {source}"))
        })?;
        let mut removed: BTreeSet<&Oid> = BTreeSet::new();
        for op in &batch.ops {
            match op {
                SourceOp::Insert { class, .. } => {
                    if !self.source_classes.contains(class) {
                        return Err(MorphaseError::Model(format!(
                            "insert into unknown source class `{class}`"
                        )));
                    }
                    let holder = (0..self.sources.len()).find(|&other| {
                        other != source && self.sources[other].extent_size(class) > 0
                    });
                    if let Some(other) = holder {
                        return Err(MorphaseError::Model(format!(
                            "insert of class `{class}` into source {source}: source {other} holds it"
                        )));
                    }
                }
                SourceOp::Update { oid, .. } => {
                    if removed.contains(oid) || !instance.contains(oid) {
                        return Err(MorphaseError::Model(format!(
                            "update of unknown object {oid}"
                        )));
                    }
                }
                SourceOp::Remove { oid } => {
                    if removed.contains(oid) || !instance.contains(oid) {
                        return Err(MorphaseError::Model(format!(
                            "remove of unknown object {oid}"
                        )));
                    }
                    removed.insert(oid);
                }
            }
        }
        Ok(())
    }

    fn maintain(&mut self, delta: &BatchDelta) -> Result<BatchReport> {
        let report = repair_incremental(
            &self.sources,
            self.options,
            &mut self.core,
            delta,
            &mut self.stats.delta_exec,
        )?;
        self.stats.inplace_batches += 1;
        self.stats.rows_removed += report.rows_removed;
        self.stats.rows_added += report.rows_added;
        self.stats.objects_repaired += report.objects_repaired;
        Ok(report)
    }

    /// The maintained target instance.
    pub fn target(&self) -> &Instance {
        &self.core.target
    }

    /// A source instance, as currently mutated.
    pub fn source(&self, index: usize) -> Option<&Instance> {
        self.sources.get(index)
    }

    /// Cumulative maintenance statistics.
    pub fn stats(&self) -> &MaintainStats {
        &self.stats
    }

    /// The augmented program's source constraints, in check order — the
    /// clause list a batch's [`ConstraintCertificate`] entries parallel
    /// (pass these to [`wol_engine::recheck`] to audit a certificate).
    ///
    /// [`ConstraintCertificate`]: wol_engine::ConstraintCertificate
    pub fn constraints(&self) -> &[Clause] {
        &self.constraints
    }

    /// True once a failure after a source mutation left the pipeline
    /// inconsistent; every later [`Self::apply_batch`] errors.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// How many applied batches a durable open recovered from the journal.
    pub fn recovered_batches(&self) -> u64 {
        self.recovered
    }

    /// Durable epilogue: fold the journal's WAL into a compact source
    /// snapshot. The pipeline keeps accepting batches afterwards.
    pub fn checkpoint(&mut self) -> Result<()> {
        if let Some(journal) = self.journal.as_mut() {
            journal.checkpoint(&self.sources[0], None)?;
        }
        Ok(())
    }

    /// Run the program from scratch over the current sources — the oracle
    /// the maintained target is bit-identical to. "From scratch" is the whole
    /// data-dependent half (plan, execute, verify) of the one pipeline body;
    /// the program-only front half is the pipeline's retained one.
    pub fn rerun_oracle(&self) -> Result<MorphaseRun> {
        let refs: Vec<&Instance> = self.sources.iter().collect();
        run_pipeline(
            self.options,
            Cow::Borrowed(&self.front),
            Rows::Resident(&refs),
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Morphase;
    use cpl::Expr;
    use workloads::genome::{self, GenomeParams};

    fn genome_pipeline(params: &GenomeParams) -> MaterializedPipeline {
        let program = genome::program();
        let source = genome::generate_source(params);
        MaterializedPipeline::new(&program, vec![source], PipelineOptions::default()).unwrap()
    }

    fn assert_matches_oracle(pipeline: &MaterializedPipeline) {
        let oracle = pipeline.rerun_oracle().unwrap();
        if let Some(report) = pipeline.target().deep_eq_report(&oracle.target) {
            panic!("maintained target diverged from the oracle: {report}");
        }
    }

    /// Source journals are keyed by this fingerprint; a change to it would
    /// make `open` wipe every existing maintenance journal as foreign. The
    /// literal is what the genome program has always hashed to.
    #[test]
    fn maintenance_fingerprint_is_pinned() {
        assert_eq!(
            maintenance_fingerprint(&genome::program()),
            0xC66C_6E68_4B21_FEB5
        );
    }

    #[test]
    fn initial_build_matches_fresh_transform_exactly() {
        let pipeline = genome_pipeline(&GenomeParams::default());
        let fresh = Morphase::new()
            .transform(
                &genome::program(),
                &[&genome::generate_source(&GenomeParams::default())][..],
            )
            .unwrap();
        if let Some(report) = pipeline.target().deep_eq_report(&fresh.target) {
            panic!("replayed initial build must equal a fresh transform: {report}");
        }
    }

    #[test]
    fn insert_batches_stay_in_place_and_match_the_oracle() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let clone_s = ClassName::new("CloneS");
        let marker_s = ClassName::new("MarkerS");
        let batch = MutationBatch::new()
            .insert(
                clone_s,
                Value::record([
                    ("name", Value::from("fresh-clone")),
                    ("length", Value::int(1234)),
                ]),
            )
            .insert(
                marker_s,
                Value::record([
                    ("name", Value::from("fresh-marker")),
                    ("position", Value::int(77)),
                ]),
            );
        let report = pipeline.apply_batch(&batch).unwrap();
        assert_eq!(report.outcome, BatchOutcome::InPlace);
        assert!(report.rows_added > 0);
        assert_matches_oracle(&pipeline);
    }

    /// `source` re-inserted under its own identities, explicitly: its
    /// generator has minted nothing, so every held identity is ahead of it.
    fn with_explicit_identities(source: &Instance) -> Instance {
        let mut explicit = Instance::new(source.schema_name());
        for (oid, value) in source.all_objects() {
            explicit.insert(oid.clone(), value.clone()).unwrap();
        }
        explicit
    }

    /// A batch insert into a source whose identities were inserted
    /// explicitly mints past them: both objects stay, the batch repairs in
    /// place, and the target equals a fresh run's.
    #[test]
    fn a_batch_insert_over_explicit_identities_stays_in_place() {
        let source = with_explicit_identities(&genome::generate_source(&GenomeParams::default()));
        let clone_s = ClassName::new("CloneS");
        let before = source.extent_size(&clone_s);
        let mut pipeline =
            MaterializedPipeline::new(&genome::program(), vec![source], PipelineOptions::default())
                .unwrap();
        let batch = MutationBatch::new().insert(
            clone_s.clone(),
            Value::record([
                ("name", Value::from("fresh-clone")),
                ("length", Value::int(1234)),
            ]),
        );
        let report = pipeline.apply_batch(&batch).unwrap();
        assert_eq!(report.outcome, BatchOutcome::InPlace);
        assert_eq!(
            pipeline.source(0).unwrap().extent_size(&clone_s),
            before + 1
        );
        assert_matches_oracle(&pipeline);
    }

    /// Each source class lives in one source. Over `[genome source, empty]`
    /// an insert of `CloneS` into the empty source — whose generator would
    /// mint `#CloneS:0`, which source 0 holds — is refused with a model
    /// error and leaves the pipeline untouched; the same insert into the
    /// source holding `CloneS` then repairs in place and equals the oracle.
    #[test]
    fn an_insert_of_a_class_another_source_holds_is_refused() {
        let source = genome::generate_source(&GenomeParams::default());
        let empty = Instance::new(source.schema_name());
        let mut pipeline = MaterializedPipeline::new(
            &genome::program(),
            vec![source, empty],
            PipelineOptions::default(),
        )
        .unwrap();
        let (clone_s, clone_d) = (ClassName::new("CloneS"), ClassName::new("CloneD"));
        let fresh = Value::from("fresh-clone");
        let batch = MutationBatch::new().insert(
            clone_s.clone(),
            Value::record([("name", fresh.clone()), ("length", Value::int(1234))]),
        );
        let (before_source, before_target) = (
            pipeline.source(1).unwrap().clone(),
            pipeline.target().clone(),
        );
        let err = pipeline.apply_batch_to(1, &batch).unwrap_err();
        assert_eq!(
            err,
            MorphaseError::Model(
                "insert of class `CloneS` into source 1: source 0 holds it".into()
            )
        );
        assert!(!pipeline.is_poisoned());
        assert_eq!(pipeline.source(1).unwrap(), &before_source);
        assert_eq!(pipeline.source(1).unwrap().extent_size(&clone_s), 0);
        assert_eq!(pipeline.target(), &before_target);
        assert_eq!(pipeline.stats().batches, 0);

        let report = pipeline.apply_batch_to(0, &batch).unwrap();
        assert_eq!(report.outcome, BatchOutcome::InPlace);
        assert!(pipeline
            .target()
            .find_by_field(&clone_d, "name", &fresh)
            .is_some());
        assert_matches_oracle(&pipeline);
    }

    /// A source set in which one class has objects in two instances is
    /// refused where it enters — by a fresh run and by a standing pipeline,
    /// with source-constraint checking off — while an empty second source is
    /// not.
    #[test]
    fn overlapping_sources_are_refused_where_they_enter() {
        let program = genome::program();
        let source = genome::generate_source(&GenomeParams::default());
        let expected = MorphaseError::Model("class `CloneS` has objects in sources 0 and 1".into());
        let options = PipelineOptions::default();
        assert!(!options.check_source_constraints);
        let err = Morphase::with_options(options)
            .transform(&program, &[&source, &source][..])
            .unwrap_err();
        assert_eq!(err, expected);
        let err =
            MaterializedPipeline::new(&program, vec![source.clone(), source.clone()], options)
                .err()
                .unwrap();
        assert_eq!(err, expected);

        let empty = Instance::new(source.schema_name());
        let fresh = Morphase::with_options(options)
            .transform(&program, &[&empty, &source][..])
            .unwrap();
        let alone = Morphase::with_options(options)
            .transform(&program, &[&source][..])
            .unwrap();
        assert_eq!(fresh.target, alone.target);
    }

    /// Over explicit identities a batch insert can mint the identity the
    /// same batch removed: the source reports it updated, so its cached rows
    /// are swept before the new object's rows are derived, and the batch
    /// repairs in place.
    #[test]
    fn a_batch_reminting_an_identity_it_removed_stays_in_place() {
        let source = with_explicit_identities(&genome::generate_source(&GenomeParams::default()));
        let marker_s = ClassName::new("MarkerS");
        let gone = source.extent(&marker_s).next().cloned().unwrap();
        let mut pipeline =
            MaterializedPipeline::new(&genome::program(), vec![source], PipelineOptions::default())
                .unwrap();
        let batch = MutationBatch::new().remove(gone.clone()).insert(
            marker_s,
            Value::record([("name", Value::from("fresh-marker"))]),
        );
        let report = pipeline.apply_batch(&batch).unwrap();
        assert_eq!(report.outcome, BatchOutcome::InPlace);
        let reminted = pipeline.source(0).unwrap().value(&gone).unwrap();
        assert_eq!(reminted.project("name"), Some(&Value::from("fresh-marker")));
        assert_matches_oracle(&pipeline);
    }

    #[test]
    fn update_batches_stay_in_place_and_match_the_oracle() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let marker_s = ClassName::new("MarkerS");
        let victim = pipeline
            .source(0)
            .unwrap()
            .extent(&marker_s)
            .next()
            .cloned()
            .unwrap();
        let mut value = pipeline.source(0).unwrap().value(&victim).unwrap().clone();
        if let Value::Record(fields) = &mut value {
            fields.insert("position".into(), Value::int(999_999));
        }
        let report = pipeline
            .apply_batch(&MutationBatch::new().update(victim, value))
            .unwrap();
        assert_eq!(report.outcome, BatchOutcome::InPlace);
        assert_matches_oracle(&pipeline);
    }

    /// Removing the source object behind a minted key repairs in place: the
    /// target object it alone supported is removed (a fresh run would not
    /// create it), and the target equals a fresh run's.
    #[test]
    fn removing_a_minted_key_repairs_in_place() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let clone_s = ClassName::new("CloneS");
        let clone_d = ClassName::new("CloneD");
        let before = pipeline.target().extent_size(&clone_d);
        let victim = pipeline
            .source(0)
            .unwrap()
            .extent(&clone_s)
            .next()
            .cloned()
            .unwrap();
        let report = pipeline
            .apply_batch(&MutationBatch::new().remove(victim))
            .unwrap();
        assert_eq!(report.outcome, BatchOutcome::InPlace);
        assert_eq!(pipeline.target().extent_size(&clone_d), before - 1);
        assert_eq!(pipeline.target(), &pipeline.rerun_oracle().unwrap().target);
        assert_matches_oracle(&pipeline);
    }

    /// Renaming a minted key repairs in place: the old key's object goes,
    /// and the new key's object carries the identity a fresh run derives.
    #[test]
    fn renaming_a_minted_key_repairs_in_place() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let clone_s = ClassName::new("CloneS");
        let victim = pipeline
            .source(0)
            .unwrap()
            .extent(&clone_s)
            .next()
            .cloned()
            .unwrap();
        let mut value = pipeline.source(0).unwrap().value(&victim).unwrap().clone();
        if let Value::Record(fields) = &mut value {
            fields.insert("name".into(), Value::from("renamed-clone"));
        }
        let report = pipeline
            .apply_batch(&MutationBatch::new().update(victim, value))
            .unwrap();
        assert_eq!(report.outcome, BatchOutcome::InPlace);
        let renamed = pipeline.target().find_by_field(
            &ClassName::new("CloneD"),
            "name",
            &Value::from("renamed-clone"),
        );
        assert!(renamed.is_some());
        assert_eq!(pipeline.target(), &pipeline.rerun_oracle().unwrap().target);
        assert_matches_oracle(&pipeline);
    }

    /// Renaming a clone sweeps exactly the cached rows that read it — those
    /// binding the clone, and `G7`'s binding a marker whose `clone` holds it
    /// (`G7` reads `S.clone.name`) — and re-derives each of them; the rest
    /// of `G7` stays cached.
    #[test]
    fn a_clone_rename_sweeps_exactly_the_rows_that_read_the_clone() {
        let mut pipeline = genome_pipeline(&GenomeParams::scaled(1));
        let (clone_s, marker_s) = (ClassName::new("CloneS"), ClassName::new("MarkerS"));
        let source = pipeline.source(0).unwrap();
        // The clone the most markers reference.
        let mut referencing: BTreeMap<&Oid, BTreeSet<Oid>> = BTreeMap::new();
        for (marker, value) in source.objects(&marker_s) {
            if let Some(Value::Oid(clone)) = value.project("clone") {
                referencing.entry(clone).or_default().insert(marker.clone());
            }
        }
        let (victim, markers) = referencing
            .into_iter()
            .max_by_key(|(_, markers)| markers.len())
            .map(|(clone, markers)| (clone.clone(), markers))
            .unwrap();
        assert!(markers.len() > 1);
        let mut swept = 0;
        let mut g7_rows = 0;
        for (analysis, cache) in pipeline.core.analyses.iter().zip(&pipeline.core.caches) {
            let reads_clones = analysis.foreign.iter().any(|read| *read.class() == clone_s);
            if reads_clones {
                g7_rows = cache.len();
            }
            let reads = |oid: &Oid| *oid == victim || (reads_clones && markers.contains(oid));
            swept += cache.keys().filter(|key| key.iter().any(reads)).count() as u64;
        }
        let mut value = source.value(&victim).unwrap().clone();
        if let Value::Record(fields) = &mut value {
            fields.insert("name".into(), Value::from("renamed-clone"));
        }
        let report = pipeline
            .apply_batch(&MutationBatch::new().update(victim, value))
            .unwrap();
        assert_eq!((report.rows_removed, report.rows_added), (swept, swept));
        assert!(swept > markers.len() as u64 && swept < g7_rows as u64 / 10);
        assert_matches_oracle(&pipeline);
    }

    /// A base bound through a variable — here `V`, equated with `S.clone` —
    /// inverts as the chain it is equated with: renaming one clone sweeps and
    /// re-derives exactly the rows binding a marker that references it, and
    /// the rest of the query stays cached.
    #[test]
    fn a_base_bound_through_a_variable_inverts_as_the_chain_it_is_equated_with() {
        use wol_lang::program::SchemaBinding;
        let target = Schema::new("labels").with_class(
            "LabelT",
            Type::record([("name", Type::str()), ("clone_name", Type::str())]),
        );
        let program = Program::new(
            "marker_labels",
            vec![SchemaBinding::new(genome::source_schema())],
            SchemaBinding::new(target),
        )
        .with_text(
            "L1: X in LabelT, X.name = N, X.clone_name = C <= S in MarkerS, N = S.name, \
                 V = S.clone, C = V.name;\n\
             K1: X = Mk_LabelT(N) <= X in LabelT, N = X.name;",
        );
        let source = genome::generate_source(&GenomeParams::default());
        let mut pipeline =
            MaterializedPipeline::new(&program, vec![source], PipelineOptions::default()).unwrap();
        let (clone_s, marker_s) = (ClassName::new("CloneS"), ClassName::new("MarkerS"));
        let analysis = &pipeline.core.analyses[0];
        let [ForeignRead::Chain(chain)] = analysis.foreign.as_slice() else {
            panic!("one chain read, got {:?}", analysis.foreign);
        };
        assert_eq!(chain.hops, [(marker_s.clone(), Label::from("clone"))]);
        assert_eq!(chain.class, clone_s);
        // The clone the most markers reference, and the rows binding them.
        let source = pipeline.source(0).unwrap();
        let mut referencing: BTreeMap<&Oid, BTreeSet<Oid>> = BTreeMap::new();
        for (marker, value) in source.objects(&marker_s) {
            if let Some(Value::Oid(clone)) = value.project("clone") {
                referencing.entry(clone).or_default().insert(marker.clone());
            }
        }
        let (victim, markers) = referencing
            .into_iter()
            .max_by_key(|(_, markers)| markers.len())
            .map(|(clone, markers)| (clone.clone(), markers))
            .unwrap();
        let cache = &pipeline.core.caches[0];
        let swept = cache.keys().filter(|key| markers.contains(&key[0])).count() as u64;
        assert!(swept > 1 && swept < cache.len() as u64);
        let mut value = source.value(&victim).unwrap().clone();
        if let Value::Record(fields) = &mut value {
            fields.insert("name".into(), Value::from("renamed-clone"));
        }
        let report = pipeline
            .apply_batch(&MutationBatch::new().update(victim, value))
            .unwrap();
        assert_eq!((report.rows_removed, report.rows_added), (swept, swept));
        assert_matches_oracle(&pipeline);
    }

    /// A base no equation resolves to a chain — here `R.c`, read off a
    /// record `R = (c = S.clone)` — widens its read to the whole extent of a
    /// scanned class: renaming one clone sweeps and re-derives every row.
    #[test]
    fn a_base_read_off_a_record_widens_to_the_whole_extent() {
        use wol_lang::program::SchemaBinding;
        let target = Schema::new("labels").with_class(
            "LabelT",
            Type::record([("name", Type::str()), ("clone_name", Type::str())]),
        );
        let program = Program::new(
            "marker_labels",
            vec![SchemaBinding::new(genome::source_schema())],
            SchemaBinding::new(target),
        )
        .with_text(
            "L1: X in LabelT, X.name = N, X.clone_name = C <= S in MarkerS, N = S.name, \
                 R = (c = S.clone), C = R.c.name;\n\
             K1: X = Mk_LabelT(N) <= X in LabelT, N = X.name;",
        );
        let source = genome::generate_source(&GenomeParams::default());
        let mut pipeline =
            MaterializedPipeline::new(&program, vec![source], PipelineOptions::default()).unwrap();
        let (clone_s, marker_s) = (ClassName::new("CloneS"), ClassName::new("MarkerS"));
        let whole = ForeignRead::Whole {
            read: clone_s.clone(),
            scanned: marker_s,
        };
        assert_eq!(pipeline.core.analyses[0].foreign, [whole]);
        let rows = pipeline.core.caches[0].len() as u64;
        let victim = pipeline.source(0).unwrap().extent(&clone_s).next().cloned();
        let victim = victim.unwrap();
        let mut value = pipeline.source(0).unwrap().value(&victim).unwrap().clone();
        if let Value::Record(fields) = &mut value {
            fields.insert("name".into(), Value::from("renamed-clone"));
        }
        let report = pipeline
            .apply_batch(&MutationBatch::new().update(victim, value))
            .unwrap();
        assert_eq!((report.rows_removed, report.rows_added), (rows, rows));
        assert_matches_oracle(&pipeline);
    }

    /// A batch inserting a second clone under each of two existing clones'
    /// names, with another length, and the two names.
    fn conflicting_twins(source: &Instance) -> (MutationBatch, Vec<Value>) {
        let clone_s = ClassName::new("CloneS");
        let twins: Vec<(Value, i64)> = source
            .objects(&clone_s)
            .filter_map(|(_, v)| match v.project("length") {
                Some(Value::Int(length)) => Some((v.project("name")?.clone(), *length)),
                _ => None,
            })
            .take(2)
            .collect();
        assert_eq!(twins.len(), 2, "two clones with a length");
        let mut batch = MutationBatch::new();
        for (name, length) in &twins {
            let twin = Value::record([("name", name.clone()), ("length", Value::int(length + 1))]);
            batch = batch.insert(clone_s.clone(), twin);
        }
        (batch, twins.into_iter().map(|(name, _)| name).collect())
    }

    /// Contributions that genuinely conflict fail the batch in place: at
    /// every thread count, planned or raw, the error is the same
    /// text, naming the least conflicting `(oid, label)`; the batch is not
    /// absorbed and the pipeline is poisoned. A build over sources that
    /// already conflict, a fresh run over them and the poisoned pipeline's
    /// oracle re-run all fail with the same error.
    #[test]
    fn conflicting_contributions_fail_in_place_with_one_error_everywhere() {
        let params = GenomeParams {
            clones: 12,
            markers: 30,
            density: 0.7,
            seed: 5,
        };
        let source = genome::generate_source(&params);
        let (batch, names) = conflicting_twins(&source);
        // Both names' warehouse objects conflict on `length`; the error
        // names the lesser identity.
        let built = genome_pipeline(&params);
        let clone_d = ClassName::new("CloneD");
        let oids: BTreeSet<&Oid> = names
            .iter()
            .map(|name| {
                built
                    .target()
                    .find_by_field(&clone_d, "name", name)
                    .unwrap()
            })
            .collect();
        assert_eq!(oids.len(), 2);
        let least = oids.first().unwrap();
        let expected = MorphaseError::Execution(format!(
            "object {least} receives conflicting values for `length`"
        ));
        // Planned and raw: the raw translation is the second plan shape.
        let mut plans = Vec::new();
        for threads in [1, 2, 4, 8] {
            for optimize_plans in [true, false] {
                let options = PipelineOptions {
                    parallelism: cpl::Parallelism::new(threads).with_min_items(1),
                    optimize_plans,
                    ..PipelineOptions::default()
                };
                let mut pipeline =
                    MaterializedPipeline::new(&genome::program(), vec![source.clone()], options)
                        .unwrap();
                if threads == 1 {
                    plans.push(pipeline.rerun_oracle().unwrap().plans);
                }
                let err = pipeline.apply_batch(&batch).unwrap_err();
                assert_eq!(
                    err, expected,
                    "{threads} threads, optimized {optimize_plans}"
                );
                assert_eq!(pipeline.stats().inplace_batches, 0);
                assert!(pipeline.is_poisoned());
                let err = pipeline.rerun_oracle().unwrap_err();
                assert_eq!(
                    err, expected,
                    "oracle: {threads} threads, optimized {optimize_plans}"
                );

                let mut conflicted = source.clone();
                conflicted.apply_batch(&batch).unwrap();
                let err = Morphase::with_options(options)
                    .transform(&genome::program(), &[&conflicted][..])
                    .unwrap_err();
                assert_eq!(
                    err, expected,
                    "fresh: {threads} threads, optimized {optimize_plans}"
                );
                let err = MaterializedPipeline::new(&genome::program(), vec![conflicted], options)
                    .err()
                    .unwrap();
                assert_eq!(
                    err, expected,
                    "build: {threads} threads, optimized {optimize_plans}"
                );
            }
        }
        assert_ne!(
            plans[0], plans[1],
            "the raw plans render as the planned ones"
        );
    }

    /// A foreign read as `read class <- slot class.attribute` for each hop
    /// of its chain, the read object's holder first.
    fn render_foreign_read(read: &ForeignRead) -> String {
        let hops = match read {
            ForeignRead::Chain(chain) => (chain.hops.iter().rev())
                .map(|(class, attr)| format!("{class}.{attr}"))
                .collect::<Vec<_>>()
                .join(" <- "),
            ForeignRead::Whole { scanned, .. } => format!("whole {scanned}"),
        };
        format!("{} <- {hops}", read.class())
    }

    /// What each consumer reads off the shared [`ReadSet`], for every
    /// workload program: the maintainer's foreign reads per query with
    /// their inversions, the federation's ingest projections and the
    /// constraint checker's locality.
    #[test]
    fn read_sets_of_every_workload_program_are_pinned() {
        use crate::federate::class_projections;
        use workloads::cities::CitiesWorkload;
        use workloads::{constrained, federated, people::PeopleWorkload, skewed, variants};

        let cities = CitiesWorkload::new();
        let programs = [
            ("genome", genome::program()),
            ("euro", cities.euro_program()),
            ("us", cities.us_program()),
            ("people", PeopleWorkload::new().program()),
            ("constrained", constrained::program()),
            ("federated", federated::program()),
            ("skewed", skewed::program()),
            ("variants", variants::wol_program(3)),
        ];
        let extra_constraints = [
            ("euro", CitiesWorkload::euro_constraints_text()),
            ("us", CitiesWorkload::us_constraints_text()),
        ];
        let mut foreign = BTreeMap::new();
        let mut projections = BTreeMap::new();
        let mut non_local = Vec::new();
        let mut constraints = 0;
        for (name, program) in &programs {
            let front = Front::build(PipelineOptions::default(), program).unwrap();
            let schemas = front.augmented.schemas();
            for clause in &front.normal.clauses {
                let reads = foreign_reads(clause, &schemas).unwrap();
                if !reads.is_empty() {
                    let query = format!("{name} {}", clause.provenance.join("+"));
                    let reads: Vec<String> = reads.iter().map(render_foreign_read).collect();
                    foreign.insert(query, reads.join(", "));
                }
            }
            // What an ingest of each source class would keep (`None`: every
            // attribute).
            let kept = class_projections(&front.normal);
            let sources = front.augmented.sources.iter();
            for (class, _) in sources.flat_map(|binding| binding.schema.classes()) {
                let attrs = match kept.get(class).cloned().flatten() {
                    Some(attrs) => attrs.into_iter().collect::<Vec<_>>().join(","),
                    None => "whole".to_string(),
                };
                projections.insert(format!("{name} {class}"), attrs);
            }
            // The program's own constraints (plus the cities texts), then
            // the key constraints generated from its schemas.
            let mut clauses: Vec<&Clause> = program
                .source_constraints()
                .into_iter()
                .chain(program.target_constraints())
                .map(|(_, clause)| clause)
                .collect();
            let extra: Vec<Clause> = extra_constraints
                .iter()
                .filter(|(n, _)| n == name)
                .flat_map(|(_, text)| wol_lang::parse_program(text).unwrap())
                .collect();
            clauses.extend(&extra);
            clauses.extend(&front.augmented.clauses[program.clauses.len()..]);
            constraints += clauses.len();
            for clause in clauses {
                if !ReadSet::of_clause(clause).is_local() {
                    non_local.push(format!(
                        "{name} {}",
                        clause.label.clone().unwrap_or_default()
                    ));
                }
            }
        }
        let pinned = |pairs: &[(&str, &str)]| -> BTreeMap<String, String> {
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        assert_eq!(
            foreign,
            pinned(&[
                ("genome G7 (#6)", "CloneS <- MarkerS.clone"),
                ("euro T2 (#1)", "CountryE <- CityE.country"),
                ("euro T3 (#2)", "CountryE <- CityE.country"),
                ("us U2 (#1)", "StateA <- CityA.state"),
                (
                    "us U3 (#2)",
                    "CityA <- StateA.capital, StateA <- CityA.state"
                ),
            ])
        );
        projections.retain(|k, _| {
            !["euro ", "us ", "variants "]
                .iter()
                .any(|p| k.starts_with(p))
        });
        assert_eq!(
            projections,
            pinned(&[
                ("genome CloneS", "lab,length,name"),
                ("genome MarkerS", "aliases,clone,name,position"),
                ("federated AssayC", "level,marker,sample,tissue"),
                ("federated CloneR", "lab,length,name"),
                ("federated MarkerA", "clone_name,name,position"),
                ("skewed CloneS", "whole"),
                ("skewed LaneS", "bin,lane,name"),
                ("skewed MarkerS", "bin,clone_name,name"),
                ("skewed ProbeS", "clone_name,lane,name"),
                ("constrained AccountS", "whole"),
                ("constrained ProfileS", "whole"),
                ("constrained UserS", "email,name"),
                ("people Person", "whole"),
            ])
        );
        // Of the written constraints only (C1) projects off a variable no
        // member atom binds; two generated keys project a reference path.
        assert_eq!(
            non_local,
            ["euro mergekey_CityE", "us C1", "people key_Marriage"]
        );
        assert_eq!(constraints, 34);
    }

    /// The row key is the scans' identity tuple in variable-name order, not
    /// the order the plan joins in.
    #[test]
    fn keys_hold_every_scan_identity_in_variable_name_order() {
        let source = genome::generate_source(&GenomeParams::default());
        let query = |plan: Plan| Query {
            name: "hand-built".into(),
            plan,
            inserts: Vec::new(),
        };
        // Markers join their clones; `M` is scanned first, `C` keys first.
        let join = query(Plan::scan("MarkerS", "M").hash_join(
            Plan::scan("CloneS", "C"),
            Expr::var("M").proj("clone"),
            Expr::var("C"),
        ));
        let analysis = analyze_query(join, Vec::new()).unwrap();
        assert_eq!(
            analysis.slots,
            vec![Slot::new("C", "CloneS"), Slot::new("M", "MarkerS")]
        );
        let refs = [&source];
        let mut ctx = EvalCtx::new(&refs);
        let mut rows = RowCache::new();
        derive(&analysis, &mut ctx, &mut ExecStats::default(), &mut rows).unwrap();
        // The oracle: every marker whose clone reference resolves.
        let oracle: BTreeSet<Vec<Oid>> = source
            .objects(&ClassName::new("MarkerS"))
            .filter_map(|(marker, v)| match v.project("clone") {
                Some(Value::Oid(clone)) => Some(vec![clone.clone(), marker.clone()]),
                _ => None,
            })
            .collect();
        assert!(!oracle.is_empty());
        assert_eq!(rows.keys().cloned().collect::<BTreeSet<_>>(), oracle);
        for (key, cached) in &rows {
            for (oid, &slot) in key.iter().zip(&analysis.key_slots) {
                assert_eq!(cached.row[slot], Value::Oid(oid.clone()));
            }
        }
    }

    #[test]
    fn empty_batches_are_cheap_no_ops() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let report = pipeline.apply_batch(&MutationBatch::new()).unwrap();
        assert_eq!(report.outcome, BatchOutcome::InPlace);
        assert_eq!(report.rows_added, 0);
        assert_eq!(report.rows_removed, 0);
        assert_matches_oracle(&pipeline);
    }

    #[test]
    fn validation_failures_leave_the_pipeline_healthy() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let bogus = MutationBatch::new().insert(ClassName::new("NoSuchClass"), Value::int(1));
        assert!(pipeline.apply_batch(&bogus).is_err());
        assert!(!pipeline.is_poisoned());
        // A well-formed batch still applies.
        let clone_s = ClassName::new("CloneS");
        let ok = MutationBatch::new().insert(
            clone_s,
            Value::record([("name", Value::from("post-error-clone"))]),
        );
        assert_eq!(
            pipeline.apply_batch(&ok).unwrap().outcome,
            BatchOutcome::InPlace
        );
        assert_matches_oracle(&pipeline);
    }

    #[test]
    fn batched_remove_then_update_of_the_same_object_is_rejected() {
        let mut pipeline = genome_pipeline(&GenomeParams::default());
        let clone_s = ClassName::new("CloneS");
        let victim = pipeline
            .source(0)
            .unwrap()
            .extent(&clone_s)
            .next()
            .cloned()
            .unwrap();
        let batch = MutationBatch::new()
            .remove(victim.clone())
            .update(victim, Value::record([("name", Value::from("zombie"))]));
        assert!(pipeline.apply_batch(&batch).is_err());
        assert!(!pipeline.is_poisoned());
    }

    /// The object of `class` named `name`.
    fn named(source: &Instance, class: &ClassName, name: &str) -> Oid {
        source
            .find_by_field(class, "name", &Value::from(name))
            .cloned()
            .unwrap()
    }

    /// Round `round` of a mixed batch stream over a European source:
    /// inserts, updates of keys and of capitals, removals, an empty batch.
    fn euro_round(source: &Instance, round: usize) -> MutationBatch {
        let (country, city) = (ClassName::new("CountryE"), ClassName::new("CityE"));
        let find = |class: &ClassName, name: &str| named(source, class, name);
        let city_value = |name: &str, is_capital: bool, of: &str| {
            Value::record([
                ("name", Value::from(name)),
                ("is_capital", Value::bool(is_capital)),
                ("country", Value::Oid(find(&country, of))),
            ])
        };
        let batch = MutationBatch::new();
        match round {
            0 => batch.insert(
                country.clone(),
                Value::record([
                    ("name", Value::from("Atlantis")),
                    ("language", Value::from("Greek")),
                    ("currency", Value::from("drachma")),
                ]),
            ),
            1 => batch
                .insert(city.clone(), city_value("Poseidonia", true, "Atlantis"))
                .insert(city.clone(), city_value("Port Royal", false, "Country1")),
            2 => batch.update(
                find(&country, "Country0"),
                Value::record([
                    ("name", Value::from("Country0")),
                    ("language", Value::from("Latin")),
                    ("currency", Value::from("euro")),
                ]),
            ),
            3 => batch.update(
                find(&city, "City0_0"),
                city_value("Capital Zero", true, "Country0"),
            ),
            4 => batch.remove(find(&city, "City1_1")),
            5 => batch
                .update(
                    find(&city, "City2_0"),
                    city_value("City2_0", false, "Country2"),
                )
                .update(
                    find(&city, "City2_1"),
                    city_value("City2_1", true, "Country2"),
                ),
            6 => batch
                .remove(find(&city, "Poseidonia"))
                .remove(find(&city, "Port Royal"))
                .remove(find(&country, "Atlantis")),
            _ => batch,
        }
    }

    /// Round `round` of a mixed batch stream over the US source of Figure 1.
    fn us_round(source: &Instance, round: usize) -> MutationBatch {
        let (state, city) = (ClassName::new("StateA"), ClassName::new("CityA"));
        let find = |class: &ClassName, name: &str| named(source, class, name);
        let city_value = |name: &str, of: &str| {
            Value::record([
                ("name", Value::from(name)),
                ("state", Value::Oid(find(&state, of))),
            ])
        };
        let state_value = |name: &str, capital: &str| {
            Value::record([
                ("name", Value::from(name)),
                ("capital", Value::Oid(find(&city, capital))),
            ])
        };
        let batch = MutationBatch::new();
        match round {
            0 => batch.insert(
                state.clone(),
                Value::record([("name", Value::from("Ohio"))]),
            ),
            1 => batch
                .insert(city.clone(), city_value("Columbus", "Ohio"))
                .insert(city.clone(), city_value("Pittsburgh", "Pennsylvania")),
            2 => batch.update(find(&state, "Ohio"), state_value("Ohio", "Columbus")),
            3 => batch.update(find(&city, "Atlanta"), city_value("Atlanta GA", "Georgia")),
            4 => batch.remove(find(&city, "Pittsburgh")),
            5 => batch.update(
                find(&state, "Georgia"),
                state_value("Peach State", "Atlanta GA"),
            ),
            6 => batch
                .remove(find(&city, "Columbus"))
                .remove(find(&state, "Ohio")),
            _ => batch,
        }
    }

    /// The paper's running example maintains in place: the European program
    /// (T1–T3 with C2, C3 and C8), the US program (U1–U3) and a T3 that binds
    /// the place through a body variable — whose compiled plan still mints,
    /// in a `Map` and a join key — absorb every batch of a mixed stream in
    /// place, each equal to a fresh run, at every thread count.
    #[test]
    fn every_cities_program_maintains_in_place_at_every_thread_count() {
        use wol_lang::program::SchemaBinding;
        use workloads::cities::{generate_euro, CitiesWorkload};
        let w = CitiesWorkload::new();
        let euro_text = CitiesWorkload::euro_program_text();
        let place_text = euro_text.replace(
            "Y in CityT, Y.place = ins_euro_city(X),",
            "Y in CityT, P = Y.place, P = ins_euro_city(X),",
        );
        assert_ne!(place_text, euro_text);
        let place_program = Program::new(
            "euro_to_target_via_place",
            vec![SchemaBinding::keyed(
                w.euro_schema.clone(),
                w.euro_keys.clone(),
            )],
            SchemaBinding::keyed(w.target_schema.clone(), w.target_keys.clone()),
        )
        .with_text(&place_text);
        type Round = fn(&Instance, usize) -> MutationBatch;
        let cases: [(&str, Program, Instance, Round, bool); 3] = [
            (
                "euro",
                w.euro_program(),
                generate_euro(6, 4, 7),
                euro_round,
                false,
            ),
            ("us", w.us_program(), w.small_us_instance(), us_round, false),
            (
                "euro via P",
                place_program,
                generate_euro(6, 4, 7),
                euro_round,
                true,
            ),
        ];
        for (name, program, source, round, mints) in &cases {
            for threads in [1, 2, 4, 8] {
                let options = PipelineOptions {
                    parallelism: cpl::Parallelism::new(threads).with_min_items(1),
                    ..PipelineOptions::default()
                };
                let mut pipeline =
                    MaterializedPipeline::new(program, vec![source.clone()], options).unwrap();
                let plans_mint = pipeline
                    .core
                    .analyses
                    .iter()
                    .any(|a| a.plan.expressions().iter().any(|e| e.contains_skolem()));
                assert_eq!(plans_mint, *mints, "{name}");
                assert_matches_oracle(&pipeline);
                for r in 0..8 {
                    let batch = round(pipeline.source(0).unwrap(), r);
                    let report = pipeline.apply_batch(&batch).unwrap();
                    let at = format!("{name}, {threads} threads, batch {r}");
                    assert_eq!(report.outcome, BatchOutcome::InPlace, "{at}");
                    // Every batch but the last, empty one writes the target.
                    assert_eq!(report.objects_repaired > 0, r < 7, "{at}");
                    assert_matches_oracle(&pipeline);
                }
                assert_eq!(pipeline.stats().inplace_batches, 8, "{name}");
            }
        }
    }

    #[test]
    fn mixed_streams_converge_batch_by_batch() {
        let mut pipeline = genome_pipeline(&GenomeParams {
            clones: 12,
            markers: 30,
            density: 0.7,
            seed: 5,
        });
        let clone_s = ClassName::new("CloneS");
        let marker_s = ClassName::new("MarkerS");
        for round in 0..6 {
            let mut batch = MutationBatch::new().insert(
                clone_s.clone(),
                Value::record([
                    ("name", Value::from(format!("round-{round}-clone"))),
                    ("length", Value::int(round)),
                ]),
            );
            if round % 2 == 0 {
                let victim = pipeline
                    .source(0)
                    .unwrap()
                    .extent(&marker_s)
                    .nth(round as usize)
                    .cloned()
                    .unwrap();
                let mut value = pipeline.source(0).unwrap().value(&victim).unwrap().clone();
                if let Value::Record(fields) = &mut value {
                    fields.insert("position".into(), Value::int(round * 1000));
                }
                batch = batch.update(victim, value);
            }
            if round == 3 {
                let victim = pipeline
                    .source(0)
                    .unwrap()
                    .extent(&clone_s)
                    .next()
                    .cloned()
                    .unwrap();
                batch = batch.remove(victim);
            }
            pipeline.apply_batch(&batch).unwrap();
            assert_matches_oracle(&pipeline);
        }
        assert!(pipeline.stats().batches == 6);
        assert_eq!(pipeline.stats().inplace_batches, 6);
    }

    fn constrained_pipeline(mode: BatchConstraintMode) -> MaterializedPipeline {
        use workloads::constrained::{self, ConstrainedParams};
        let program = constrained::program();
        let source = constrained::generate_source(&ConstrainedParams::default());
        let options = PipelineOptions {
            batch_constraints: mode,
            ..PipelineOptions::default()
        };
        MaterializedPipeline::new(&program, vec![source], options).unwrap()
    }

    #[test]
    fn enforcing_pipeline_rejects_violations_without_poisoning() {
        use workloads::constrained;
        let mut pipeline = constrained_pipeline(BatchConstraintMode::Enforce);
        let mut gen = constrained::ConstrainedGen::new(pipeline.source(0).unwrap(), 3);
        // Clean traffic commits with a certificate and no violations.
        let report = pipeline.apply_batch(&gen.next_batch(5)).unwrap();
        let check = report.constraints.expect("enforce mode attaches a check");
        assert!(check.violations.is_empty());
        assert_eq!(check.certificate.entries.len(), 3);
        // A duplicate email is rejected: the error carries the violation,
        // sources and target revert bit-exactly, nothing is poisoned.
        let before_source = pipeline.source(0).unwrap().clone();
        let before_target = pipeline.target().clone();
        let before_batches = pipeline.stats().batches;
        let err = pipeline.apply_batch(&gen.violating_batch()).unwrap_err();
        assert!(
            matches!(&err, MorphaseError::Verification(m) if m.contains("S1")),
            "unexpected rejection error: {err}"
        );
        assert!(!pipeline.is_poisoned());
        assert!(pipeline
            .source(0)
            .unwrap()
            .deep_eq_report(&before_source)
            .is_none());
        assert!(pipeline.target().deep_eq_report(&before_target).is_none());
        assert_eq!(pipeline.stats().batches, before_batches);
        assert_eq!(pipeline.stats().rejected_batches, 1);
        assert!(pipeline.stats().constraint_violations > 0);
        // The pipeline keeps absorbing clean traffic and matches the oracle.
        pipeline.apply_batch(&gen.next_batch(5)).unwrap();
        assert_matches_oracle(&pipeline);
    }

    /// A rejected insert over explicitly inserted identities reverts the
    /// source bit-identically, generator included.
    #[test]
    fn a_rejected_insert_over_explicit_identities_reverts_bit_identically() {
        use workloads::constrained::{self, ConstrainedParams};
        let source =
            with_explicit_identities(&constrained::generate_source(&ConstrainedParams::default()));
        let options = PipelineOptions {
            batch_constraints: BatchConstraintMode::Enforce,
            ..PipelineOptions::default()
        };
        let mut pipeline =
            MaterializedPipeline::new(&constrained::program(), vec![source.clone()], options)
                .unwrap();
        let mut gen = constrained::ConstrainedGen::new(&source, 3);
        let err = pipeline.apply_batch(&gen.violating_batch()).unwrap_err();
        assert!(
            matches!(&err, MorphaseError::Verification(m) if m.contains("S1")),
            "unexpected rejection error: {err}"
        );
        let reverted = pipeline.source(0).unwrap();
        assert_eq!(reverted.deep_eq_report(&source), None);
        assert_eq!(reverted, &source);
        assert_eq!(pipeline.stats().rejected_batches, 1);
    }

    #[test]
    fn reporting_pipeline_commits_violations_and_recovers() {
        use workloads::constrained;
        let mut pipeline = constrained_pipeline(BatchConstraintMode::Report);
        let mut gen = constrained::ConstrainedGen::new(pipeline.source(0).unwrap(), 4);
        // The violating batch commits; the report carries the violations.
        let report = pipeline.apply_batch(&gen.violating_batch()).unwrap();
        let check = report.constraints.expect("report mode attaches a check");
        assert!(check.violations.iter().any(|v| v.clause == "S1"));
        assert!(!pipeline.is_poisoned());
        assert_matches_oracle(&pipeline);
        // While the violation stands, S1's pre-clean contract is void: the
        // next batch re-checks it in full and still reports it.
        let user_s = ClassName::new("UserS");
        let next = pipeline.apply_batch(&MutationBatch::new()).unwrap();
        let next_check = next.constraints.expect("still checking");
        let s1 = &next_check.certificate.entries[0];
        assert_eq!(s1.constraint, "S1");
        assert!(!s1.violations.is_empty());
        // Removing the imposter clears the violation; the constraint
        // returns to delta checking afterwards.
        let imposter = pipeline
            .source(0)
            .unwrap()
            .objects(&user_s)
            .find(|(_, v)| v.project("tier") == Some(&Value::int(constrained::IMPOSTER_TIER)))
            .map(|(oid, _)| oid.clone())
            .expect("the committed imposter is live");
        let cleared = pipeline
            .apply_batch(&MutationBatch::new().remove(imposter))
            .unwrap();
        assert!(cleared.constraints.unwrap().violations.is_empty());
        assert_matches_oracle(&pipeline);
        assert_eq!(pipeline.stats().rejected_batches, 0);
        assert!(pipeline.stats().constraint_violations >= 2);
    }

    #[test]
    fn off_mode_attaches_no_check_and_counts_no_constraints() {
        use workloads::constrained;
        let mut pipeline = constrained_pipeline(BatchConstraintMode::Off);
        let mut gen = constrained::ConstrainedGen::new(pipeline.source(0).unwrap(), 6);
        let report = pipeline.apply_batch(&gen.next_batch(4)).unwrap();
        assert!(report.constraints.is_none());
        assert_eq!(pipeline.stats().constraints_checked, 0);
        assert_eq!(pipeline.stats().constraints_skipped, 0);
    }
}
