//! A cost-based join-graph planner.
//!
//! The paper relies on "the Kleisli optimizer \[rewriting\] the CPL code to a
//! more efficient form" (Section 6). This module is that substitute. The
//! primary entry point is [`optimize_with_stats`], a **join-graph planner**:
//!
//! 1. **Decompose** the compiled plan, by reference, into a pool of base
//!    scans, defining `Map` bindings, and filter/join conjuncts (wherever
//!    they sat in the original operator tree). The plan is consumed: the
//!    finished plan re-applies its `Map` bindings, moved out of it (see
//!    below for where each lands).
//! 2. **Inline** the `Map` definitions into the conjunct pool, so every
//!    conjunct ranges over base scan variables only — this is what lets an
//!    equality like `C.name = N` (with `N` defined as `D.name` by a map)
//!    become a join edge between the two scans instead of a post-product
//!    filter. From here on a variable is addressed by its scan's index:
//!    each conjunct's scan set is computed once, and estimates propagate
//!    per `(scan index, attribute)`.
//! 3. **Estimate**: per-scan cardinalities come from the live [`Instance`]
//!    extents via a [`Statistics`] handle. Under the default
//!    [`CostModel::Histogram`], equality selectivities come from lazy
//!    per-attribute equi-depth histograms ([`wol_model::histogram`]) — exact
//!    on skewed value heads, where the uniform model is most wrong — and
//!    estimated ndv is propagated through join outputs (capped by each
//!    component's estimated rows). [`CostModel::FlatNdv`] keeps the plain
//!    `1/ndv` selectivities from the attribute indexes' distinct counts
//!    ([`wol_model::index`]) as the differential baseline. Inequalities and
//!    boolean tests use fixed heuristics in both models.
//! 4. **Greedily join** the cheapest *connected* pair of components next
//!    (the same greedy selectivity discipline `wol_engine::env::build_plan`
//!    applies to clause bodies), folding **every** cross-side equality into a
//!    (possibly composite) [`Plan::HashJoin`] key and keeping the rest as a
//!    residual filter. Cross products are refused unless the join graph is
//!    genuinely disconnected, in which case an explicit [`Plan::CrossJoin`]
//!    documents the fact.
//!
//! Single-scan conjuncts are pushed below the joins, and hash-join sides are
//! oriented so a bare scan keyed by a single attribute stays bare — the
//! executor then answers it with attribute-index probes instead of
//! materialising the side at all ([`crate::exec`]).
//!
//! Bindings are placed once, here. A definition that projects one attribute
//! off a *filtered* scan's variable is bound in a `Map` directly over that
//! scan's filters — a column lane of its scan→filter→map tower
//! ([`crate::columnar`]), read for the survivors in the scan's own pass — and
//! a hash-join key equal to it reads the bound variable. Every other binding
//! stays in one `Map` at the root; a bare scan binds nothing, so it stays
//! index-probeable and free to drive a delta join. The estimator reads a
//! bound variable as its definition, so placement never moves an estimate.
//!
//! A plan the planner does not take — no scan at all, or a `Map` that
//! rebinds a variable — is returned unchanged: the raw plan is the semantics
//! every planner property test compares against, so it is also the safe
//! answer. The translator emits neither shape.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use wol_model::{AttrHistogram, ClassName, Instance, Label, Value};

use crate::expr::Expr;
use crate::plan::Plan;

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Extent sizes when no statistics are available (compile-only runs).
const DEFAULT_EXTENT: f64 = 1_000.0;
/// Selectivity of an equality whose sides carry no ndv information.
const SEL_EQ_DEFAULT: f64 = 0.1;
/// Selectivity of `<` / `=<` comparisons.
const SEL_CMP: f64 = 0.3;
/// Selectivity of `!=`.
const SEL_NEQ: f64 = 0.9;
/// Selectivity of boolean attribute tests, negations, and anything else.
const SEL_BOOL: f64 = 0.5;
/// Floor for every estimated selectivity, so a provably-empty histogram
/// estimate (disjoint domains) still leaves plans comparable instead of
/// collapsing whole subtrees to an exact zero.
const SEL_FLOOR: f64 = 1e-9;

/// Which cardinality model the planner estimates with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CostModel {
    /// The PR-2 baseline: flat `1/ndv` equality selectivities from the
    /// attribute indexes' distinct counts, no distribution information, no
    /// propagation of ndv through join outputs. Kept bit-for-bit as the
    /// differential baseline the histogram model is tested against.
    FlatNdv,
    /// Per-attribute equi-depth histograms ([`wol_model::histogram`]):
    /// equality selectivities come from the actual value distribution (exact
    /// for the skew head), constant filters use per-value frequencies, and
    /// estimated ndv is propagated and capped through join outputs.
    #[default]
    Histogram,
}

/// A handle over the live source instances from which the planner reads
/// extent sizes, per-attribute distinct-value counts, and (under
/// [`CostModel::Histogram`]) per-attribute equi-depth histograms. Reading an
/// attribute's statistics builds the same lazy index the executor later
/// probes, so the work is shared, not duplicated; histograms are additionally
/// memoised here so repeated selectivity questions during planning do not
/// re-clone them out of the instances.
#[derive(Clone, Default)]
pub struct Statistics<'a> {
    sources: Vec<&'a Instance>,
    cost_model: CostModel,
    /// Per-`(class, attr)` memo of the sources' histograms (one entry per
    /// source that carries the attribute at all).
    histograms: RefCell<HistogramMemo>,
    /// Backend-reported statistics for classes that are *not* resident in any
    /// attached instance yet (federated sources, consulted before ingest).
    /// An external entry takes precedence over the instances for its class.
    external: BTreeMap<ClassName, ExternalClassStats>,
}

/// Cardinality and distinct-value statistics a scan backend reports for one
/// of its classes, letting the planner cost scans *before* the class is
/// ingested into an [`Instance`]: the record the backends themselves produce
/// (`storage`'s `ClassStats`), defined once in `wol_model`.
pub use wol_model::ClassStats as ExternalClassStats;

/// The per-`(class, attribute)` histogram memo inside [`Statistics`].
type HistogramMemo = BTreeMap<(ClassName, Label), Rc<Vec<AttrHistogram>>>;

impl std::fmt::Debug for Statistics<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Statistics")
            .field("sources", &self.sources.len())
            .finish()
    }
}

impl<'a> Statistics<'a> {
    /// Statistics over the given source instances, estimating with the
    /// default [`CostModel::Histogram`].
    pub fn from_instances(sources: &[&'a Instance]) -> Self {
        Statistics {
            sources: sources.to_vec(),
            ..Statistics::default()
        }
    }

    /// Statistics with no instances: every estimate falls back to fixed
    /// defaults. Used for compile-only runs.
    pub fn empty() -> Self {
        Statistics::default()
    }

    /// Switch the cardinality model (builder style).
    pub fn with_cost_model(mut self, cost_model: CostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// The cardinality model estimates use.
    pub fn cost_model(&self) -> CostModel {
        self.cost_model
    }

    /// Attach backend-reported per-class statistics (builder style). These
    /// take precedence over the attached instances for their classes, so a
    /// federated pipeline can plan against sources it has not ingested yet.
    pub fn with_external(mut self, external: Vec<ExternalClassStats>) -> Self {
        for stats in external {
            self.external.insert(stats.class.clone(), stats);
        }
        self
    }

    /// Total extent size of `class` across the sources; `None` when no
    /// instances (or external statistics for the class) are attached.
    pub fn extent_size(&self, class: &ClassName) -> Option<usize> {
        if let Some(external) = self.external.get(class) {
            return Some(external.rows);
        }
        if self.sources.is_empty() {
            return None;
        }
        Some(self.sources.iter().map(|i| i.extent_size(class)).sum())
    }

    /// Approximate number of distinct values of `class.attr` across the
    /// sources; `None` when no instances are attached (or the external
    /// statistics for the class do not cover the attribute).
    pub fn ndv(&self, class: &ClassName, attr: &str) -> Option<usize> {
        if let Some(external) = self.external.get(class) {
            return external.ndvs.get(attr).copied();
        }
        if self.sources.is_empty() {
            return None;
        }
        Some(self.sources.iter().map(|i| i.attr_ndv(class, attr)).sum())
    }

    fn extent_estimate(&self, class: &ClassName) -> f64 {
        self.extent_size(class)
            .map(|n| n as f64)
            .unwrap_or(DEFAULT_EXTENT)
    }

    /// The sources' equi-depth histograms of `class.attr` (one per source
    /// that carries the attribute), memoised. Empty when no instances are
    /// attached or no object carries the attribute.
    pub fn attr_histograms(&self, class: &ClassName, attr: &Label) -> Rc<Vec<AttrHistogram>> {
        let key = (class.clone(), attr.clone());
        if let Some(cached) = self.histograms.borrow().get(&key) {
            return Rc::clone(cached);
        }
        let built: Vec<AttrHistogram> = self
            .sources
            .iter()
            .map(|i| i.attr_histogram(class, attr))
            .filter(|h| !h.is_empty())
            .collect();
        let built = Rc::new(built);
        self.histograms.borrow_mut().insert(key, Rc::clone(&built));
        built
    }
}

/// Total entries summarised by a set of per-source histograms.
fn hist_entries(hists: &[AttrHistogram]) -> f64 {
    hists.iter().map(|h| h.entries() as f64).sum()
}

/// Estimated `Σ_v count_l(v) · count_r(v)` across all source pairs.
fn hist_join_rows(left: &[AttrHistogram], right: &[AttrHistogram]) -> f64 {
    let mut rows = 0.0;
    for l in left {
        for r in right {
            rows += l.eq_join_rows(r);
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Decomposition: plan -> scans + maps + conjunct pool.
// ---------------------------------------------------------------------------

/// The raw material of a query, read off a compiled plan by reference: base
/// scans, defining `Map` bindings (in dependency order), and the pooled
/// filter/join conjuncts. A conjunct is `(e, None)`; a hash-join key pair
/// `l = r` is `(l, Some(r))`.
#[derive(Default)]
struct Pool<'p> {
    scans: Vec<(&'p ClassName, &'p str)>,
    maps: Vec<&'p (String, Expr)>,
    conjuncts: Vec<(&'p Expr, Option<&'p Expr>)>,
}

/// Split a predicate into its conjuncts.
fn split_conjuncts<'p>(expr: &'p Expr, out: &mut Vec<(&'p Expr, Option<&'p Expr>)>) {
    match expr {
        Expr::And(es) => es.iter().for_each(|e| split_conjuncts(e, out)),
        other => out.push((other, None)),
    }
}

/// Rebuild a conjunction (or `None` for the empty conjunction).
fn conjunction(mut exprs: Vec<Expr>) -> Option<Expr> {
    match exprs.len() {
        0 => None,
        1 => Some(exprs.remove(0)),
        _ => Some(Expr::And(exprs)),
    }
}

/// Flatten a plan into the pool.
fn decompose<'p>(plan: &'p Plan, pool: &mut Pool<'p>) {
    match plan {
        Plan::Scan { class, var } => pool.scans.push((class, var)),
        Plan::Filter { input, predicate } => {
            decompose(input, pool);
            split_conjuncts(predicate, &mut pool.conjuncts);
        }
        Plan::Map { input, bindings } => {
            decompose(input, pool);
            pool.maps.extend(bindings);
        }
        Plan::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            decompose(left, pool);
            decompose(right, pool);
            split_conjuncts(predicate, &mut pool.conjuncts);
        }
        Plan::HashJoin { left, right, keys } => {
            decompose(left, pool);
            decompose(right, pool);
            pool.conjuncts
                .extend(keys.iter().map(|(l, r)| (l, Some(r))));
        }
        Plan::CrossJoin { left, right } => {
            decompose(left, pool);
            decompose(right, pool);
        }
    }
}

/// The index of a variable no scan binds: no estimate side holds it and no
/// class belongs to it.
const UNBOUND: usize = usize::MAX;

/// A plan's scan variables, addressed by index: each distinct variable in
/// first-scan order, with its class (the last scan's, as
/// [`Plan::scan_classes`] keeps it).
struct ScanVars<'p> {
    vars: Vec<(&'p str, &'p ClassName)>,
    /// The plan's `Map` definitions, which the estimator reads through.
    defs: BTreeMap<&'p str, &'p Expr>,
}

impl<'p> ScanVars<'p> {
    fn new(scans: &[(&'p ClassName, &'p str)]) -> Self {
        let mut vars: Vec<(&str, &ClassName)> = Vec::with_capacity(scans.len());
        for &(class, var) in scans {
            match vars.iter_mut().find(|(v, _)| *v == var) {
                Some(entry) => entry.1 = class,
                None => vars.push((var, class)),
            }
        }
        ScanVars {
            vars,
            defs: BTreeMap::new(),
        }
    }

    /// `expr`, or the definition of the `Map` variable it names: a join key
    /// that reads a variable a filtered scan binds estimates as the
    /// projection it stands for.
    fn resolve<'e>(&'e self, expr: &'e Expr) -> &'e Expr {
        match expr {
            Expr::Var(v) if self.index(v) == UNBOUND => {
                self.defs.get(v.as_str()).copied().unwrap_or(expr)
            }
            _ => expr,
        }
    }

    /// The index of `var`, [`UNBOUND`] when no scan binds it.
    fn index(&self, var: &str) -> usize {
        self.vars
            .iter()
            .position(|(v, _)| *v == var)
            .unwrap_or(UNBOUND)
    }

    fn class(&self, index: usize) -> Option<&'p ClassName> {
        self.vars.get(index).map(|(_, class)| *class)
    }

    /// The indexes of the variables `expr` references.
    fn indexes_of(&self, expr: &Expr) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        expr.for_each_var(&mut |v| {
            out.insert(self.index(v));
        });
        out
    }
}

// ---------------------------------------------------------------------------
// Selectivity and cardinality estimation.
// ---------------------------------------------------------------------------

/// `var.attr` as `(var, attr)`: a single attribute projection off a variable.
fn single_hop(expr: &Expr) -> Option<(&str, &Label)> {
    match expr {
        Expr::Proj(base, attr) => match base.as_ref() {
            Expr::Var(v) => Some((v, attr)),
            _ => None,
        },
        _ => None,
    }
}

/// If `expr` is a single attribute projection off a scan variable, the
/// number of distinct values it takes; if it is a bare scan variable, the
/// extent size (object identities are unique). `None` otherwise.
fn expr_ndv(expr: &Expr, scans: &ScanVars<'_>, stats: &Statistics<'_>) -> Option<usize> {
    let expr = scans.resolve(expr);
    if let Some((v, attr)) = single_hop(expr) {
        return stats.ndv(scans.class(scans.index(v))?, attr);
    }
    match expr {
        Expr::Var(v) => stats.extent_size(scans.class(scans.index(v))?),
        _ => None,
    }
}

/// Selectivity of an equality under the flat `1/ndv` model (the
/// [`CostModel::FlatNdv`] baseline the histogram model is tested against).
fn eq_selectivity_flat(a: &Expr, b: &Expr, scans: &ScanVars<'_>, stats: &Statistics<'_>) -> f64 {
    let ndv = match (expr_ndv(a, scans, stats), expr_ndv(b, scans, stats)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (Some(x), None) | (None, Some(x)) => Some(x),
        (None, None) => None,
    };
    match ndv {
        Some(n) => 1.0 / n.max(1) as f64,
        None => SEL_EQ_DEFAULT,
    }
}

// ---------------------------------------------------------------------------
// Histogram-fed estimation with ndv propagation.
// ---------------------------------------------------------------------------

/// Key under which per-attribute estimates are propagated: `(scan index,
/// Some(attr))` for a single attribute projection off a scan variable,
/// `(scan index, None)` for the bare object identity.
type AttrKey = (usize, Option<Label>);

/// What a sub-plan is estimated to look like: output rows plus the estimated
/// number of distinct values each attribute still takes *in that output* —
/// the join-output ndv propagation the flat model lacks (there, only base
/// scans carry ndv and everything above the leaves guesses).
#[derive(Clone, Debug, Default)]
struct CardEst {
    rows: f64,
    /// Estimated ndv of attr keys in this output, where it differs from the
    /// base statistics (joined-on keys, constant-filtered keys). Readers cap
    /// every lookup at `rows`, so shrinking outputs shrink every ndv.
    ndvs: BTreeMap<AttrKey, f64>,
    /// Indexes of the scan variables this sub-plan produces (for routing
    /// conjunct sides).
    vars: BTreeSet<usize>,
}

impl CardEst {
    fn scan(class: &ClassName, index: usize, stats: &Statistics<'_>) -> CardEst {
        CardEst {
            rows: stats.extent_estimate(class),
            ndvs: BTreeMap::new(),
            vars: BTreeSet::from([index]),
        }
    }

    /// The base ndv of `key` from the statistics (histogram when built,
    /// distinct counts otherwise; extent size for bare identities).
    fn base_ndv(key: &AttrKey, scans: &ScanVars<'_>, stats: &Statistics<'_>) -> Option<f64> {
        let class = scans.class(key.0)?;
        match &key.1 {
            None => stats.extent_size(class),
            Some(attr) => stats.ndv(class, attr),
        }
        .map(|n| n.max(1) as f64)
    }

    /// The estimated ndv of `key` in this output: the propagated value if
    /// one is recorded, the base statistic otherwise, always capped at the
    /// output row count.
    fn effective_ndv(
        &self,
        key: &AttrKey,
        scans: &ScanVars<'_>,
        stats: &Statistics<'_>,
    ) -> Option<f64> {
        let base = CardEst::base_ndv(key, scans, stats);
        let stored = self.ndvs.get(key).copied().or(base)?;
        Some(stored.min(self.rows.max(1.0)).max(1.0))
    }

    /// Merge another side's estimate into this one after a join producing
    /// `rows` rows.
    fn absorb_join(&mut self, other: CardEst, rows: f64) {
        self.rows = rows;
        self.vars.extend(other.vars);
        self.apply_updates(other.ndvs);
    }

    /// Fold propagated-ndv updates into this estimate, keeping the tightest
    /// (smallest) value per key. Every selectivity pass reports its updates
    /// through here, so the merge rule lives in exactly one place.
    fn apply_updates(&mut self, updates: impl IntoIterator<Item = (AttrKey, f64)>) {
        for (key, ndv) in updates {
            self.ndvs
                .entry(key)
                .and_modify(|existing| *existing = existing.min(ndv))
                .or_insert(ndv);
        }
    }
}

/// The estimator: the plan's scan variables plus the statistics handle. All
/// selectivity logic lives here; the flat model changes equalities only.
struct Estimator<'a, 'b> {
    scans: &'b ScanVars<'b>,
    stats: &'b Statistics<'a>,
}

impl Estimator<'_, '_> {
    fn histogram_model(&self) -> bool {
        self.stats.cost_model() == CostModel::Histogram
    }

    /// The attr key of an expression, if it has one.
    fn attr_key(&self, expr: &Expr) -> Option<AttrKey> {
        let expr = self.scans.resolve(expr);
        if let Some((v, attr)) = single_hop(expr) {
            return Some((self.scans.index(v), Some(attr.clone())));
        }
        match expr {
            Expr::Var(v) => Some((self.scans.index(v), None)),
            _ => None,
        }
    }

    /// The per-source histograms behind an attr-key expression (only for
    /// genuine attribute projections — bare identities are uniform by
    /// construction, which the ndv path already models exactly).
    fn histograms_of(&self, expr: &Expr) -> Option<Rc<Vec<AttrHistogram>>> {
        let (index, Some(attr)) = self.attr_key(expr)? else {
            return None;
        };
        let hists = self.stats.attr_histograms(self.scans.class(index)?, &attr);
        if hists.is_empty() {
            None
        } else {
            Some(hists)
        }
    }

    /// Selectivity of an equality conjunct, given the (optional) estimates
    /// of the side(s) its expressions range over. Returns the selectivity
    /// and records propagated-ndv updates for the joined output into `out`
    /// (the flat model records none).
    fn eq_selectivity(
        &self,
        a: &Expr,
        b: &Expr,
        sides: &[&CardEst],
        out: &mut Vec<(AttrKey, f64)>,
    ) -> f64 {
        if !self.histogram_model() {
            return eq_selectivity_flat(a, b, self.scans, self.stats);
        }
        // An attr key's expression ranges over its one scan variable: it is
        // read on the first side producing that variable.
        let eff_ndv = |e: &Expr| -> Option<f64> {
            let key = self.attr_key(e)?;
            match sides.iter().find(|s| s.vars.contains(&key.0)) {
                Some(side) => side.effective_ndv(&key, self.scans, self.stats),
                None => CardEst::base_ndv(&key, self.scans, self.stats),
            }
        };

        // Constant filter: `attr = const` answered from the histogram's
        // per-value frequency — exact for the skew head. The attribute is
        // pinned to one value afterwards.
        for (e, other) in [(a, b), (b, a)] {
            if let (Expr::Const(value), Some(hists)) = (other, self.histograms_of(e)) {
                let entries = hist_entries(&hists);
                if entries > 0.0 {
                    let matching: f64 = hists.iter().map(|h| h.eq_count(value)).sum();
                    if let Some(key) = self.attr_key(e) {
                        out.push((key, 1.0));
                    }
                    return (matching / entries).clamp(SEL_FLOOR, 1.0);
                }
            }
        }

        // Attribute-to-attribute equality: join the two distributions.
        if let (Some(hl), Some(hr)) = (self.histograms_of(a), self.histograms_of(b)) {
            let (nl, nr) = (hist_entries(&hl), hist_entries(&hr));
            if nl > 0.0 && nr > 0.0 {
                let rows = hist_join_rows(&hl, &hr);
                let sel = (rows / (nl * nr)).clamp(SEL_FLOOR, 1.0);
                if let (Some(ka), Some(kb), Some(na), Some(nb)) =
                    (self.attr_key(a), self.attr_key(b), eff_ndv(a), eff_ndv(b))
                {
                    let joint = na.min(nb);
                    out.push((ka, joint));
                    out.push((kb, joint));
                }
                return sel;
            }
        }

        // No usable histogram (identity joins, computed keys): uniform over
        // the *effective* (propagated, output-capped) distinct counts.
        let ndv = match (eff_ndv(a), eff_ndv(b)) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (Some(x), None) | (None, Some(x)) => Some(x),
            (None, None) => None,
        };
        match ndv {
            Some(n) => {
                if let (Some(ka), Some(kb), Some(na), Some(nb)) =
                    (self.attr_key(a), self.attr_key(b), eff_ndv(a), eff_ndv(b))
                {
                    let joint = na.min(nb);
                    out.push((ka, joint));
                    out.push((kb, joint));
                }
                (1.0 / n.max(1.0)).clamp(SEL_FLOOR, 1.0)
            }
            None => SEL_EQ_DEFAULT,
        }
    }

    /// Selectivity of an arbitrary conjunct against the given side
    /// estimates, recording ndv propagation updates into `out`. Only
    /// equalities depend on the cost model; the rest are fixed heuristics.
    fn conjunct_selectivity(
        &self,
        conjunct: &Expr,
        sides: &[&CardEst],
        out: &mut Vec<(AttrKey, f64)>,
    ) -> f64 {
        match conjunct {
            Expr::Eq(a, b) => self.eq_selectivity(a, b, sides, out),
            Expr::Neq(_, _) => SEL_NEQ,
            Expr::Lt(_, _) | Expr::Leq(_, _) => SEL_CMP,
            Expr::And(es) => es
                .iter()
                .map(|e| self.conjunct_selectivity(e, sides, out))
                .product(),
            _ => SEL_BOOL,
        }
    }
}

/// One join operator's estimated output, in the executor's evaluation order
/// (post-order over the plan tree). Paired with the actual per-join row
/// counts the executor traces, so estimate-vs-actual error is visible per
/// join in reports.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinEstimate {
    /// Operator kind (`HashJoin`, `NestedLoopJoin`, `CrossJoin`).
    pub kind: &'static str,
    /// Estimated output rows of the join.
    pub rows: f64,
}

/// What one estimate walk of a plan yields: the rows it is estimated to
/// produce, and each join operator's estimated output in executor post-order.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanEstimate {
    /// Estimated output rows of the whole plan.
    pub rows: f64,
    /// Per-join estimates, in the order the executor records actual join
    /// outputs in ([`crate::expr::EvalCtx::enable_join_trace`]).
    pub joins: Vec<JoinEstimate>,
}

/// Bottom-up cardinality estimation of a plan, propagating both row counts
/// and per-attribute ndv through joins, using the same cardinality model the
/// planner plans with. Every join operator records its estimate in
/// post-order — the exact order the executor records actual join outputs in.
pub fn estimate_plan(plan: &Plan, stats: &Statistics<'_>) -> PlanEstimate {
    fn go(plan: &Plan, est: &Estimator<'_, '_>, joins: &mut Vec<JoinEstimate>) -> CardEst {
        let (kind, l, r, rows, updates) = match plan {
            Plan::Scan { class, var } => {
                return CardEst::scan(class, est.scans.index(var), est.stats)
            }
            Plan::Filter { input, predicate } => {
                let mut card = go(input, est, joins);
                let mut updates = Vec::new();
                let sel = est.conjunct_selectivity(predicate, &[&card], &mut updates);
                card.rows *= sel;
                card.apply_updates(updates);
                return card;
            }
            Plan::Map { input, .. } => return go(input, est, joins),
            Plan::NestedLoopJoin {
                left,
                right,
                predicate,
            } => {
                let l = go(left, est, joins);
                let r = go(right, est, joins);
                let mut updates = Vec::new();
                let sel = est.conjunct_selectivity(predicate, &[&l, &r], &mut updates);
                let rows = l.rows * r.rows * sel;
                ("NestedLoopJoin", l, r, rows, updates)
            }
            Plan::CrossJoin { left, right } => {
                let l = go(left, est, joins);
                let r = go(right, est, joins);
                let rows = l.rows * r.rows;
                ("CrossJoin", l, r, rows, Vec::new())
            }
            Plan::HashJoin { left, right, keys } => {
                let l = go(left, est, joins);
                let r = go(right, est, joins);
                let mut rows = l.rows * r.rows;
                let mut updates = Vec::new();
                for (lk, rk) in keys {
                    rows *= est.eq_selectivity(lk, rk, &[&l, &r], &mut updates);
                }
                ("HashJoin", l, r, rows, updates)
            }
        };
        let mut card = l;
        card.absorb_join(r, rows);
        card.apply_updates(updates);
        joins.push(JoinEstimate {
            kind,
            rows: card.rows,
        });
        card
    }
    let mut pool = Pool::default();
    decompose(plan, &mut pool);
    let mut scans = ScanVars::new(&pool.scans);
    scans.defs = pool.maps.iter().map(|(v, e)| (v.as_str(), e)).collect();
    let est = Estimator {
        scans: &scans,
        stats,
    };
    let mut joins = Vec::new();
    let rows = go(plan, &est, &mut joins).rows;
    PlanEstimate { rows, joins }
}

/// Estimate the number of rows a plan produces: the root of
/// [`estimate_plan`]. Reported by the Morphase pipeline next to the actual
/// row counts.
pub fn estimate_rows(plan: &Plan, stats: &Statistics<'_>) -> f64 {
    estimate_plan(plan, stats).rows
}

/// Per-join output estimates of a plan, in executor post-order: the joins
/// of [`estimate_plan`]. Pair these with the executor's join trace
/// ([`crate::expr::EvalCtx::enable_join_trace`]) to report
/// estimate-vs-actual error per join.
pub fn estimate_join_outputs(plan: &Plan, stats: &Statistics<'_>) -> Vec<JoinEstimate> {
    estimate_plan(plan, stats).joins
}

// ---------------------------------------------------------------------------
// The planner.
// ---------------------------------------------------------------------------

/// A partially built sub-plan during greedy join ordering: its plan and the
/// cardinality estimate (rows + propagated per-attribute ndv + variables).
struct Component {
    plan: Plan,
    card: CardEst,
}

impl Component {
    /// Whether the executor's attribute-index fast path could answer this
    /// side of a hash join keyed by `keys` (this side's expressions). Defers
    /// to the executor's own detection so planning and execution cannot
    /// drift apart.
    fn indexable<'k>(&self, keys: impl Iterator<Item = &'k Expr>) -> bool {
        crate::exec::indexable_side(&self.plan, keys).is_some()
    }
}

// ---------------------------------------------------------------------------
// Predicate pushdown into scan backends.
// ---------------------------------------------------------------------------

/// A comparison a scan backend can evaluate natively on one attribute: the
/// one operator type the backends themselves take (`storage`'s `PushOp`).
pub use wol_model::PushOp as PushCmp;

/// One `var.attr cmp value` conjunct a scan's backend can evaluate at the
/// source, as read off a planned tree by [`pushable_predicates`]. The conjunct
/// stays in the plan as a `Filter` over its scan either way, so plans — and
/// with them join paths and row order — do not depend on
/// whether anything is pushed; only where the predicate first runs differs.
#[derive(Clone, Debug, PartialEq)]
pub struct PushedPredicate {
    /// The scan variable the conjunct ranged over.
    pub var: String,
    /// The scanned class the backend serves.
    pub class: ClassName,
    /// The attribute compared.
    pub attr: String,
    /// The comparison, normalised so the attribute is on the left.
    pub cmp: PushCmp,
    /// The constant compared against.
    pub value: Value,
}

/// Which `(class, attribute)` pairs scan backends can filter natively:
/// [`pushable_predicates`] reports only `attr cmp const` conjuncts listed
/// here.
#[derive(Clone, Debug, Default)]
pub struct PushdownCatalog {
    classes: BTreeMap<ClassName, BTreeSet<String>>,
}

impl PushdownCatalog {
    /// Allow pushing comparisons on `class.attr`.
    pub fn allow(&mut self, class: &ClassName, attr: &str) {
        self.classes
            .entry(class.clone())
            .or_default()
            .insert(attr.to_string());
    }

    /// True if comparisons on `class.attr` may be pushed.
    pub fn pushable(&self, class: &ClassName, attr: &str) -> bool {
        self.classes
            .get(class)
            .is_some_and(|attrs| attrs.contains(attr))
    }

    /// True if the catalog allows nothing.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Recognise `var.attr cmp const` (either orientation) as a predicate the
/// backend serving `class` can evaluate, per the catalog.
fn as_pushable(
    conjunct: &Expr,
    var: &str,
    class: &ClassName,
    catalog: &PushdownCatalog,
) -> Option<PushedPredicate> {
    fn attr_of<'e>(e: &'e Expr, var: &str) -> Option<&'e str> {
        single_hop(e).and_then(|(v, attr)| (v == var).then_some(attr.as_str()))
    }
    let (a, b, fwd, rev) = match conjunct {
        Expr::Eq(a, b) => (a, b, PushCmp::Eq, PushCmp::Eq),
        Expr::Neq(a, b) => (a, b, PushCmp::Neq, PushCmp::Neq),
        Expr::Lt(a, b) => (a, b, PushCmp::Lt, PushCmp::Gt),
        Expr::Leq(a, b) => (a, b, PushCmp::Leq, PushCmp::Geq),
        _ => return None,
    };
    let (attr, cmp, value) = match (a.as_ref(), b.as_ref()) {
        (e, Expr::Const(value)) => (attr_of(e, var)?, fwd, value.clone()),
        (Expr::Const(value), e) => (attr_of(e, var)?, rev, value.clone()),
        _ => return None,
    };
    if !catalog.pushable(class, attr) {
        return None;
    }
    Some(PushedPredicate {
        var: var.to_string(),
        class: class.clone(),
        attr: attr.to_string(),
        cmp,
        value,
    })
}

/// The predicates scan backends could evaluate at the source, read off a
/// *planned* tree: every catalog-allowed `var.attr cmp const` conjunct of a
/// `Filter` chain sitting directly on a `Scan`, scans in plan order and each
/// scan's conjuncts innermost filter first. The planner sinks every
/// single-variable conjunct (map definitions inlined) onto its scan, so for a
/// planned tree these are exactly the single-scan constant comparisons of the
/// query; a filter anywhere else (over a join, above a `Map`) is not reported.
/// Pure: the plan is not changed, which is what keeps a pushdown-on run
/// bit-identical to a pushdown-off one — the reported conjunct still runs in
/// the executor as a residual re-check that admits every row the backend
/// already filtered.
pub fn pushable_predicates(plan: &Plan, catalog: &PushdownCatalog) -> Vec<PushedPredicate> {
    /// Walks `plan`; returns the scan it is a pure filter chain over, if any.
    fn walk<'p>(
        plan: &'p Plan,
        catalog: &PushdownCatalog,
        out: &mut Vec<PushedPredicate>,
    ) -> Option<(&'p ClassName, &'p str)> {
        match plan {
            Plan::Scan { class, var } => Some((class, var)),
            Plan::Filter { input, predicate } => {
                let (class, var) = walk(input, catalog, out)?;
                let mut conjuncts = Vec::new();
                split_conjuncts(predicate, &mut conjuncts);
                for (conjunct, _) in conjuncts {
                    out.extend(as_pushable(conjunct, var, class, catalog));
                }
                Some((class, var))
            }
            Plan::Map { input, .. } => {
                walk(input, catalog, out);
                None
            }
            Plan::NestedLoopJoin { left, right, .. }
            | Plan::HashJoin { left, right, .. }
            | Plan::CrossJoin { left, right } => {
                walk(left, catalog, out);
                walk(right, catalog, out);
                None
            }
        }
    }
    let mut out = Vec::new();
    walk(plan, catalog, &mut out);
    out
}

/// Optimise a plan with the join-graph planner, fed by extent and
/// distinct-value statistics over the live source instances
/// ([`Statistics::empty`] when none are at hand: every estimate then uses
/// fixed defaults). A shape the planner does not take comes back
/// unchanged (see the module docs).
pub fn optimize_with_stats(mut plan: Plan, stats: &Statistics<'_>) -> Plan {
    let mut pool = Pool::default();
    decompose(&plan, &mut pool);
    // Inlining map definitions into the conjunct pool is only sound when
    // every binding introduces a *fresh* variable: a binding that shadows a
    // scan variable (or an earlier binding) changes what conjuncts below it
    // referred to. The translator never emits such plans, but the planner is
    // a public API — rebinding shapes keep their raw form.
    let mut seen: BTreeSet<&str> = pool.scans.iter().map(|(_, var)| *var).collect();
    if !pool.maps.iter().all(|(var, _)| seen.insert(var)) {
        return plan;
    }
    let Some((mut planned, bound)) = plan_pool(pool, stats) else {
        return plan;
    };
    // Re-apply the defining maps the scans did not bind (original,
    // unsubstituted form — the executor evaluates a Map's bindings in order,
    // so intra-map dependencies are preserved), moved out of the raw plan.
    let mut maps = Vec::new();
    take_maps(&mut plan, &mut maps);
    let mut bound = bound.into_iter();
    maps.retain(|_| !bound.next().unwrap_or(false));
    if !maps.is_empty() {
        planned = planned.map(maps);
    }
    planned
}

/// Move every `Map` binding out of `plan`, in [`decompose`] order.
fn take_maps(plan: &mut Plan, out: &mut Vec<(String, Expr)>) {
    match plan {
        Plan::Scan { .. } => {}
        Plan::Filter { input, .. } => take_maps(input, out),
        Plan::Map { input, bindings } => {
            take_maps(input, out);
            out.append(bindings);
        }
        Plan::NestedLoopJoin { left, right, .. }
        | Plan::HashJoin { left, right, .. }
        | Plan::CrossJoin { left, right } => {
            take_maps(left, out);
            take_maps(right, out);
        }
    }
}

/// The map definitions by variable: each binding's position and expression.
type Defs<'p> = BTreeMap<&'p str, (usize, &'p Expr)>;

/// `expr` with every variable bound by one of the maps before `limit`
/// replaced by its definition, itself resolved through the bindings before
/// it — what substituting the bindings one by one, in order, gives.
fn inline(expr: &Expr, defs: &Defs<'_>, limit: usize) -> Expr {
    expr.substitute(&mut |v| match defs.get(v) {
        Some(&(position, def)) if position < limit => Some(inline(def, defs, position)),
        _ => None,
    })
}

/// A pooled conjunct, with the indexes of the scan variables it reaches.
type Pooled = (Expr, BTreeSet<usize>);

/// Build the cheapest join tree the greedy strategy finds for a decomposed
/// pool (`None` for a pool without scans), with which of its maps' bindings
/// the tree binds itself: those go in a `Map` over their filtered scan.
fn plan_pool(pool: Pool<'_>, stats: &Statistics<'_>) -> Option<(Plan, Vec<bool>)> {
    // Inline the map definitions into the conjunct pool, so every conjunct
    // ranges over scan variables only.
    let defs: Defs<'_> = pool
        .maps
        .iter()
        .enumerate()
        .map(|(position, (var, expr))| (var.as_str(), (position, expr)))
        .collect();
    let scans = ScanVars::new(&pool.scans);
    // Each conjunct's reach is computed once; a conjunct leaves the pool
    // (`None`) when a plan node takes it.
    let mut conjuncts: Vec<Option<Pooled>> = pool
        .conjuncts
        .iter()
        .map(|&(e, key)| {
            let expr = match key {
                None => inline(e, &defs, usize::MAX),
                Some(r) => Expr::Eq(
                    Box::new(inline(e, &defs, usize::MAX)),
                    Box::new(inline(r, &defs, usize::MAX)),
                ),
            };
            let reach = scans.indexes_of(&expr);
            Some((expr, reach))
        })
        .collect();
    let estimator = Estimator {
        scans: &scans,
        stats,
    };

    // One component per scan, with its single-variable conjuncts pushed down.
    // A filtered scan also binds each definition that is one projection off
    // its variable, so its columnar tower reads the column for the survivors
    // and nothing above it dereferences the object again. A bare scan binds
    // nothing: it stays index-probeable and free to drive a delta join. (A
    // variable scanned twice keeps every binding above the joins.)
    let mut bound = vec![false; pool.maps.len()];
    let distinct = scans.vars.len() == pool.scans.len();
    let mut components: Vec<Component> = Vec::new();
    for &(class, var) in &pool.scans {
        let index = scans.index(var);
        let mut card = CardEst::scan(class, index, stats);
        let mut plan = Plan::scan(class.clone(), var);
        for slot in conjuncts.iter_mut() {
            let single =
                |(_, reach): &mut Pooled| !reach.is_empty() && reach.iter().all(|&v| v == index);
            if let Some((conjunct, _)) = slot.take_if(single) {
                let mut updates = Vec::new();
                card.rows *= estimator.conjunct_selectivity(&conjunct, &[&card], &mut updates);
                card.apply_updates(updates);
                plan = plan.filter(conjunct);
            }
        }
        if distinct && !matches!(plan, Plan::Scan { .. }) {
            let bindings: Vec<(String, Expr)> = pool
                .maps
                .iter()
                .zip(&mut bound)
                .filter(|((_, def), _)| single_hop(def).is_some_and(|(v, _)| v == var))
                .map(|(binding, bound)| {
                    *bound = true;
                    (*binding).clone()
                })
                .collect();
            if !bindings.is_empty() {
                plan = plan.map(bindings);
            }
        }
        components.push(Component { plan, card });
    }
    // A join key equal to a bound definition reads the bound variable.
    let defined: Vec<(&str, &Expr)> = pool
        .maps
        .iter()
        .zip(&bound)
        .filter(|(_, &bound)| bound)
        .map(|((var, def), _)| (var.as_str(), def))
        .collect();

    // Greedy join loop: always join the cheapest connected pair next; fall
    // back to an explicit cross join of the two smallest components only
    // when nothing connects what remains.
    while components.len() > 1 {
        /// The best pair found so far: estimated output rows, the two
        /// component positions, the applicable conjunct indexes, and the
        /// ndv-propagation updates the winning estimate produced.
        type BestPair = (f64, usize, usize, Vec<usize>, Vec<(AttrKey, f64)>);
        let mut best: Option<BestPair> = None;
        let (mut applicable, mut updates) = (Vec::new(), Vec::new());
        for i in 0..components.len() {
            for j in (i + 1)..components.len() {
                let (left, right) = (&components[i].card, &components[j].card);
                applicable_conjuncts(&conjuncts, &left.vars, &right.vars, &mut applicable);
                if applicable.is_empty() {
                    continue;
                }
                let mut est = left.rows * right.rows;
                updates.clear();
                for (conjunct, _) in applicable.iter().filter_map(|&k| conjuncts[k].as_ref()) {
                    est *= estimator.conjunct_selectivity(conjunct, &[left, right], &mut updates);
                }
                if best.as_ref().is_none_or(|(cost, ..)| est < *cost) {
                    best = Some((est, i, j, applicable.clone(), updates.clone()));
                }
            }
        }
        match best {
            Some((est, i, j, applicable, updates)) => {
                let right = components.remove(j);
                let left = components.remove(i);
                let picked: Vec<Expr> = applicable
                    .iter()
                    .filter_map(|&k| conjuncts[k].take())
                    .map(|(conjunct, _)| conjunct)
                    .collect();
                let joined = join_components(left, right, picked, est, updates, &scans, &defined);
                components.insert(i, joined);
            }
            None => {
                // Genuinely disconnected: cross-join the two smallest.
                let (i, j) = two_smallest(&components);
                let right = components.remove(j);
                let left = components.remove(i);
                let est = left.card.rows * right.card.rows;
                let mut card = left.card;
                card.absorb_join(right.card, est);
                components.insert(
                    i,
                    Component {
                        plan: left.plan.cross(right.plan),
                        card,
                    },
                );
            }
        }
    }
    let mut plan = components.pop()?.plan;

    // Anything left in the pool (variable-free predicates, or conjuncts over
    // variables no scan produces) runs as a final filter.
    let leftovers: Vec<Expr> = conjuncts.into_iter().flatten().map(|(c, _)| c).collect();
    if let Some(residual) = conjunction(leftovers) {
        plan = plan.filter(residual);
    }
    Some((plan, bound))
}

/// Indexes of the pooled conjuncts that connect two components, into `out`:
/// fully evaluable over the union of their variables while touching both
/// sides.
fn applicable_conjuncts(
    conjuncts: &[Option<Pooled>],
    left: &BTreeSet<usize>,
    right: &BTreeSet<usize>,
    out: &mut Vec<usize>,
) {
    out.clear();
    out.extend(
        conjuncts
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.as_ref().is_some_and(|(_, vars)| {
                    !vars.is_empty()
                        && vars.iter().all(|v| left.contains(v) || right.contains(v))
                        && vars.iter().any(|v| left.contains(v))
                        && vars.iter().any(|v| right.contains(v))
                })
            })
            .map(|(i, _)| i),
    );
}

/// Positions of the two cheapest components.
fn two_smallest(components: &[Component]) -> (usize, usize) {
    let mut order: Vec<usize> = (0..components.len()).collect();
    order.sort_by(|&a, &b| {
        components[a]
            .card
            .rows
            .partial_cmp(&components[b].card.rows)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let (a, b) = (order[0], order[1]);
    (a.min(b), a.max(b))
}

/// Join two components with the given conjuncts: every cross-side equality
/// becomes part of the composite hash key, the rest stays as a residual
/// filter; sides are oriented so the executor's index fast path can fire.
/// `updates` carries the joined output's propagated ndv entries, computed by
/// the same selectivity pass that produced `est`; a key equal to one of the
/// `defined` bindings reads its variable instead.
fn join_components(
    left: Component,
    right: Component,
    conjs: Vec<Expr>,
    est: f64,
    updates: Vec<(AttrKey, f64)>,
    scans: &ScanVars<'_>,
    defined: &[(&str, &Expr)],
) -> Component {
    let read = |key: Box<Expr>| match defined.iter().find(|(_, def)| **def == *key) {
        Some((var, _)) => Expr::var(*var),
        None => *key,
    };
    let mut keys: Vec<(Expr, Expr)> = Vec::new();
    let mut residual: Vec<Expr> = Vec::new();
    for conjunct in conjs {
        if let Expr::Eq(a, b) = conjunct {
            // Whether `e` has variables, all produced by `side`.
            let within = |e: &Expr, side: &Component| {
                let (mut any, mut all) = (false, true);
                e.for_each_var(&mut |v| {
                    any = true;
                    all &= side.card.vars.contains(&scans.index(v));
                });
                any && all
            };
            if within(&a, &left) && within(&b, &right) {
                keys.push((read(a), read(b)));
            } else if within(&a, &right) && within(&b, &left) {
                keys.push((read(b), read(a)));
            } else {
                residual.push(Expr::Eq(a, b));
            }
        } else {
            residual.push(conjunct);
        }
    }
    let left_rows = left.card.rows;
    let right_rows = right.card.rows;
    let left_indexable = left.indexable(keys.iter().map(|(l, _)| l));
    let right_indexable = right.indexable(keys.iter().map(|(_, r)| r));
    let mut card = left.card;
    card.absorb_join(right.card, est);
    card.apply_updates(updates);
    let mut plan = if keys.is_empty() {
        // Connected only by non-equality conjuncts (at least one): a
        // predicated nested loop.
        let (outer, inner) = if left_rows <= right_rows {
            (left.plan, right.plan)
        } else {
            (right.plan, left.plan)
        };
        let predicate = conjunction(std::mem::take(&mut residual));
        let plan = outer.join(inner, predicate.unwrap_or(Expr::And(Vec::new())));
        return Component { plan, card };
    } else {
        // Orient the hash join: a bare indexable scan goes where the executor
        // probes it through the attribute index (preferring to probe the
        // larger side — the driving side is materialised in full); otherwise
        // build the hash table over the smaller side.
        let swap = match (left_indexable, right_indexable) {
            (true, false) => false,
            (false, true) => true,
            (true, true) => left_rows < right_rows,
            (false, false) => left_rows > right_rows,
        };
        let (build, probe) = if swap {
            keys = keys.into_iter().map(|(l, r)| (r, l)).collect();
            (right.plan, left.plan)
        } else {
            (left.plan, right.plan)
        };
        build.hash_join_multi(probe, keys)
    };
    if let Some(residual_pred) = conjunction(residual) {
        plan = plan.filter(residual_pred);
    }
    Component { plan, card }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_plan, ExecStats};
    use crate::expr::EvalCtx;
    use wol_model::{ClassName, Instance, Value};

    /// The planner with no statistics at hand.
    fn optimize(plan: Plan) -> Plan {
        optimize_with_stats(plan, &Statistics::empty())
    }

    fn instance() -> Instance {
        let mut inst = Instance::new("euro");
        let fr = inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::str("France")),
                ("language", Value::str("French")),
            ]),
        );
        let de = inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::str("Germany")),
                ("language", Value::str("German")),
            ]),
        );
        for (name, capital, c) in [
            ("Paris", true, &fr),
            ("Lyon", false, &fr),
            ("Berlin", true, &de),
        ] {
            inst.insert_fresh(
                &ClassName::new("CityE"),
                Value::record([
                    ("name", Value::str(name)),
                    ("is_capital", Value::bool(capital)),
                    ("country", Value::oid(c.clone())),
                ]),
            );
        }
        inst
    }

    fn rows_of(plan: &Plan, inst: &Instance) -> Vec<crate::Row> {
        let refs = [inst];
        let mut ctx = EvalCtx::new(&refs);
        let mut stats = ExecStats::default();
        let mut rows = run_plan(plan, &mut ctx, &mut stats).unwrap();
        rows.sort();
        rows
    }

    #[test]
    fn nested_loop_with_equality_becomes_hash_join() {
        let plan = Plan::scan("CityE", "E").join(
            Plan::scan("CountryE", "C"),
            Expr::var("E")
                .path("country.name")
                .eq(Expr::var("C").proj("name")),
        );
        assert!(matches!(optimize(plan), Plan::HashJoin { .. }));
    }

    #[test]
    fn residual_conjuncts_preserved_as_filter() {
        let plan = Plan::scan("CityE", "E").join(
            Plan::scan("CountryE", "C"),
            Expr::and(vec![
                Expr::var("E")
                    .path("country.name")
                    .eq(Expr::var("C").proj("name")),
                Expr::var("E").proj("is_capital"),
            ]),
        );
        // The one-sided capital test is pushed below the join.
        match optimize(plan) {
            Plan::HashJoin { left, right, .. } => {
                assert!(
                    matches!(*left, Plan::Filter { .. }) || matches!(*right, Plan::Filter { .. })
                );
            }
            other => panic!("expected a hash join, got {other:?}"),
        }
    }

    #[test]
    fn filter_pushed_below_join() {
        let plan = Plan::scan("CityE", "E")
            .cross(Plan::scan("CountryE", "C"))
            .filter(Expr::var("E").proj("is_capital"));
        // The planner has no equality to join on: the graph is disconnected,
        // so it owns up to the product with an explicit CrossJoin (and still
        // pushes the filter down).
        let planned = optimize(plan);
        match planned {
            Plan::CrossJoin { left, right } => {
                assert!(
                    matches!(*left, Plan::Filter { .. }) || matches!(*right, Plan::Filter { .. })
                );
            }
            other => panic!("expected a cross join, got {other:?}"),
        }
    }

    #[test]
    fn optimised_plans_produce_the_same_rows() {
        let inst = instance();
        let original = Plan::scan("CityE", "E")
            .join(
                Plan::scan("CountryE", "C"),
                Expr::and(vec![
                    Expr::var("E")
                        .path("country.name")
                        .eq(Expr::var("C").proj("name")),
                    Expr::var("E").proj("is_capital"),
                ]),
            )
            .map(vec![("N".to_string(), Expr::var("C").proj("language"))]);
        let expected = rows_of(&original, &inst);
        assert_eq!(expected.len(), 2);
        let refs = [&inst];
        let stats = Statistics::from_instances(&refs);
        for optimised in [
            optimize(original.clone()),
            optimize_with_stats(original.clone(), &stats),
        ] {
            assert_ne!(original, optimised);
            assert_eq!(rows_of(&optimised, &inst), expected);
        }
    }

    #[test]
    fn map_definitions_are_inlined_into_join_equalities() {
        // The E6 shape: the join equality goes through a Map-defined variable,
        // which the planner inlines into a hash-join key.
        let inst = instance();
        let plan = Plan::scan("CityE", "E")
            .cross(Plan::scan("CountryE", "C"))
            .map(vec![("N".to_string(), Expr::var("C").proj("name"))])
            .filter(Expr::var("E").path("country.name").eq(Expr::var("N")));
        let refs = [&inst];
        let stats = Statistics::from_instances(&refs);
        let planned = optimize_with_stats(plan.clone(), &stats);
        assert!(planned.render().contains("HashJoin"));
        assert!(!planned.render().contains("CrossJoin"));
        assert_eq!(rows_of(&planned, &inst), rows_of(&plan, &inst));
    }

    #[test]
    fn multi_key_equalities_fold_into_one_composite_hash_join() {
        let plan = Plan::scan("CityE", "E").join(
            Plan::scan("CountryE", "C"),
            Expr::and(vec![
                Expr::var("E")
                    .path("country.name")
                    .eq(Expr::var("C").proj("name")),
                Expr::var("E")
                    .path("country.language")
                    .eq(Expr::var("C").proj("language")),
            ]),
        );
        let inst = instance();
        let expected = rows_of(&plan, &inst);
        assert_eq!(expected.len(), 3);
        let optimised = optimize(plan);
        match &optimised {
            Plan::HashJoin { keys, .. } => assert_eq!(keys.len(), 2),
            other => panic!("expected a composite-key hash join, got {other:?}"),
        }
        assert_eq!(rows_of(&optimised, &inst), expected);
    }

    #[test]
    fn planner_orders_joins_by_estimated_cost() {
        // Three scans in a chain, deliberately listed in the worst order:
        // the planner must not join CityE with CityE first (no conjunct
        // connects them), and must never emit a cross product.
        let inst = instance();
        let plan = Plan::scan("CityE", "E")
            .cross(Plan::scan("CityE", "F"))
            .cross(Plan::scan("CountryE", "C"))
            .filter(Expr::and(vec![
                Expr::var("E")
                    .path("country.name")
                    .eq(Expr::var("C").proj("name")),
                Expr::var("F").proj("country").eq(Expr::var("C")),
                Expr::var("F").proj("is_capital"),
            ]));
        let refs = [&inst];
        let stats = Statistics::from_instances(&refs);
        let planned = optimize_with_stats(plan.clone(), &stats);
        let rendered = planned.render();
        assert!(!rendered.contains("CrossJoin"));
        assert!(!rendered.contains("NestedLoopJoin"));
        assert_eq!(rows_of(&planned, &inst), rows_of(&plan, &inst));
    }

    #[test]
    fn disconnected_graphs_cross_join_the_smallest_components() {
        let inst = instance();
        let plan = Plan::scan("CityE", "E")
            .cross(Plan::scan("CountryE", "C"))
            .filter(Expr::var("E").proj("is_capital"))
            .filter(
                Expr::var("C")
                    .proj("language")
                    .eq(Expr::Const(Value::str("French"))),
            );
        let refs = [&inst];
        let stats = Statistics::from_instances(&refs);
        let planned = optimize_with_stats(plan.clone(), &stats);
        assert!(planned.render().contains("CrossJoin"));
        assert_eq!(rows_of(&planned, &inst), rows_of(&plan, &inst));
    }

    #[test]
    fn join_without_usable_equality_stays_nested_loop() {
        let plan = Plan::scan("CityE", "E").join(
            Plan::scan("CountryE", "C"),
            Expr::Lt(
                Box::new(Expr::var("E").proj("name")),
                Box::new(Expr::var("C").proj("name")),
            ),
        );
        match optimize(plan) {
            Plan::NestedLoopJoin { predicate, .. } => assert!(matches!(predicate, Expr::Lt(..))),
            other => panic!("expected nested loop join, got {other:?}"),
        }
    }

    #[test]
    fn optimize_is_idempotent() {
        let plan = Plan::scan("CityE", "E").join(
            Plan::scan("CountryE", "C"),
            Expr::var("E")
                .path("country.name")
                .eq(Expr::var("C").proj("name")),
        );
        let once = optimize(plan);
        let twice = optimize(once.clone());
        assert_eq!(once, twice);
    }

    #[test]
    fn a_filtered_scan_binds_its_own_projections_and_a_bare_scan_stays_probed() {
        // As the translator writes a clause: a product, one `Map` of
        // definitions, every conjunct on top. `X` carries a filter, `Y` none.
        let inst = skewed_instance();
        let refs = [&inst];
        let stats = Statistics::from_instances(&refs);
        let not_a0 = Expr::Neq(
            Box::new(Expr::var("X").proj("name")),
            Box::new(Expr::constant("A0")),
        );
        let raw = Plan::scan("A", "X")
            .cross(Plan::scan("B", "Y"))
            .map(vec![
                ("NX".to_string(), Expr::var("X").proj("name")),
                ("KX".to_string(), Expr::var("X").proj("k")),
                ("NY".to_string(), Expr::var("Y").proj("name")),
            ])
            .filter(Expr::and(vec![
                not_a0.clone(),
                Expr::var("KX").eq(Expr::var("Y").proj("k")),
            ]));
        let planned = optimize_with_stats(raw.clone(), &stats);
        // The bare scan's binding stays above the join ...
        let Plan::Map { input, bindings } = &planned else {
            panic!("expected a Map at the root:\n{}", planned.render());
        };
        assert_eq!(
            bindings,
            &vec![("NY".to_string(), Expr::var("Y").proj("name"))]
        );
        let Plan::HashJoin { left, right, keys } = input.as_ref() else {
            panic!("expected a hash join:\n{}", planned.render());
        };
        // ... the bare scan is the index-probed side ...
        assert_eq!(**left, Plan::scan("B", "Y"));
        // ... the filtered scan binds its projections in a Map over its
        // Filter over its Scan ...
        let filtered = Plan::scan("A", "X").filter(not_a0);
        assert_eq!(
            **right,
            filtered.clone().map(vec![
                ("NX".to_string(), Expr::var("X").proj("name")),
                ("KX".to_string(), Expr::var("X").proj("k")),
            ])
        );
        // ... and the key equal to a bound definition reads its variable.
        assert_eq!(keys, &vec![(Expr::var("Y").proj("k"), Expr::var("KX"))]);
        assert_eq!(optimize_with_stats(planned.clone(), &stats), planned);

        // Estimates read the bound key as the projection it stands for: the
        // skewed histograms' join, not a default.
        let written_out = Plan::scan("B", "Y").hash_join(
            filtered,
            Expr::var("Y").proj("k"),
            Expr::var("X").proj("k"),
        );
        for stats in [stats.clone(), stats.with_cost_model(CostModel::FlatNdv)] {
            assert_eq!(
                estimate_plan(&planned, &stats),
                estimate_plan(&written_out, &stats)
            );
        }

        // The same rows as the raw plan, the join answered by index probes.
        let mut ctx = EvalCtx::new(&refs);
        let mut exec = ExecStats::default();
        let mut rows = run_plan(&planned, &mut ctx, &mut exec).unwrap();
        rows.sort();
        assert!(exec.index_probes > 0, "{exec:?}");
        assert_eq!(rows.len(), 39 * 20);
        assert_eq!(rows, rows_of(&raw, &inst));
    }

    #[test]
    fn rebinding_maps_are_not_inlined() {
        // A Map that rebinds a scan variable would make substitution unsound
        // (the filter below the Map refers to the *pre*-Map value); such
        // shapes come back unchanged.
        let inst = instance();
        let plan = Plan::scan("CityE", "E")
            .filter(Expr::var("E").proj("is_capital"))
            .map(vec![("E".to_string(), Expr::var("E").proj("country"))]);
        let expected = rows_of(&plan, &inst);
        assert_eq!(expected.len(), 2);
        let refs = [&inst];
        let stats = Statistics::from_instances(&refs);
        for optimised in [
            optimize(plan.clone()),
            optimize_with_stats(plan.clone(), &stats),
        ] {
            assert_eq!(optimised, plan);
            assert_eq!(rows_of(&optimised, &inst), expected);
        }
    }

    #[test]
    fn statistics_report_extents_and_ndv() {
        let inst = instance();
        let refs = [&inst];
        let stats = Statistics::from_instances(&refs);
        assert_eq!(stats.extent_size(&ClassName::new("CityE")), Some(3));
        assert_eq!(stats.ndv(&ClassName::new("CityE"), "is_capital"), Some(2));
        assert_eq!(stats.ndv(&ClassName::new("CountryE"), "name"), Some(2));
        let empty = Statistics::empty();
        assert_eq!(empty.extent_size(&ClassName::new("CityE")), None);
        assert_eq!(empty.ndv(&ClassName::new("CityE"), "name"), None);
    }

    /// A small skewed instance: class `A` and class `B` both carry a `k`
    /// attribute where one hot value dominates.
    fn skewed_instance() -> Instance {
        let mut inst = Instance::new("skew");
        for i in 0..60 {
            let k = if i < 40 {
                "hot".to_string()
            } else {
                format!("a{i}")
            };
            inst.insert_fresh(
                &ClassName::new("A"),
                Value::record([("name", Value::str(format!("A{i}"))), ("k", Value::str(k))]),
            );
        }
        for i in 0..30 {
            let k = if i < 20 {
                "hot".to_string()
            } else {
                format!("a{}", i + 40)
            };
            inst.insert_fresh(
                &ClassName::new("B"),
                Value::record([("name", Value::str(format!("B{i}"))), ("k", Value::str(k))]),
            );
        }
        inst
    }

    #[test]
    fn cost_model_is_a_statistics_builder_knob() {
        let inst = instance();
        let refs = [&inst];
        let stats = Statistics::from_instances(&refs);
        assert_eq!(stats.cost_model(), CostModel::Histogram);
        let flat = stats.clone().with_cost_model(CostModel::FlatNdv);
        assert_eq!(flat.cost_model(), CostModel::FlatNdv);
        // Histograms are memoised per (class, attr): the second request
        // returns the same shared vector.
        let a = stats.attr_histograms(&ClassName::new("CityE"), &"name".into());
        let b = stats.attr_histograms(&ClassName::new("CityE"), &"name".into());
        assert!(std::rc::Rc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 1);
        // Empty statistics expose no histograms.
        assert!(Statistics::empty()
            .attr_histograms(&ClassName::new("CityE"), &"name".into())
            .is_empty());
    }

    #[test]
    fn histogram_model_sees_skew_the_flat_model_misses() {
        let inst = skewed_instance();
        let refs = [&inst];
        let hist = Statistics::from_instances(&refs);
        let flat = Statistics::from_instances(&refs).with_cost_model(CostModel::FlatNdv);
        let join = Plan::scan("A", "X").hash_join(
            Plan::scan("B", "Y"),
            Expr::var("X").proj("k"),
            Expr::var("Y").proj("k"),
        );
        // True join size: 40*20 (hot) + ~0 tail = 800. The flat model
        // guesses |A|*|B|/ndv = 60*30/21 ~ 86.
        let hist_est = estimate_rows(&join, &hist);
        let flat_est = estimate_rows(&join, &flat);
        assert!(
            (hist_est - 800.0).abs() < 80.0,
            "histogram estimate {hist_est} strays from ~800"
        );
        assert!(
            flat_est < 150.0,
            "flat estimate {flat_est} unexpectedly saw the skew"
        );

        // Constant filters on the hot value are exact under the histogram
        // model, and flat-uniform under the flat model.
        let filter = Plan::scan("A", "X")
            .filter(Expr::var("X").proj("k").eq(Expr::Const(Value::str("hot"))));
        let hist_filter = estimate_rows(&filter, &hist);
        let flat_filter = estimate_rows(&filter, &flat);
        assert_eq!(hist_filter, 40.0);
        assert!(flat_filter < 5.0);
        // A value outside the domain estimates to (almost) nothing.
        let miss = Plan::scan("A", "X").filter(
            Expr::var("X")
                .proj("k")
                .eq(Expr::Const(Value::str("nonexistent"))),
        );
        assert!(estimate_rows(&miss, &hist) < 1.0);
    }

    #[test]
    fn estimate_join_outputs_walks_joins_in_executor_post_order() {
        let inst = instance();
        let refs = [&inst];
        let stats = Statistics::from_instances(&refs);
        let plan = Plan::scan("CityE", "E")
            .hash_join(
                Plan::scan("CountryE", "C"),
                Expr::var("E").path("country.name"),
                Expr::var("C").proj("name"),
            )
            .cross(Plan::scan("CountryE", "D"));
        let estimates = estimate_join_outputs(&plan, &stats);
        assert_eq!(estimates.len(), 2);
        assert_eq!(estimates[0].kind, "HashJoin");
        assert_eq!(estimates[1].kind, "CrossJoin");
        // The cross join's estimate is the hash join's times the extent.
        assert!((estimates[1].rows - estimates[0].rows * 2.0).abs() < 1e-9);
        // The executor's trace has the same shape in the same order.
        let mut ctx = crate::expr::EvalCtx::new(&refs);
        ctx.enable_join_trace();
        let mut exec_stats = ExecStats::default();
        run_plan(&plan, &mut ctx, &mut exec_stats).unwrap();
        let trace = ctx.take_join_trace();
        assert_eq!(trace.len(), estimates.len());
        assert!(trace
            .iter()
            .zip(&estimates)
            .all(|(actual, est)| actual.kind == est.kind));
    }

    #[test]
    fn estimate_rows_tracks_the_cardinality_model() {
        let inst = instance();
        let refs = [&inst];
        let stats = Statistics::from_instances(&refs);
        let scan = Plan::scan("CityE", "E");
        assert_eq!(estimate_rows(&scan, &stats), 3.0);
        let join = Plan::scan("CityE", "E").hash_join(
            Plan::scan("CountryE", "C"),
            Expr::var("E").path("country.name"),
            Expr::var("C").proj("name"),
        );
        // 3 x 2 / ndv(name)=2 = 3.
        assert_eq!(estimate_rows(&join, &stats), 3.0);
        let cross = Plan::scan("CityE", "E").cross(Plan::scan("CountryE", "C"));
        assert_eq!(estimate_rows(&cross, &stats), 6.0);
    }

    // -- Reading pushable predicates off planned trees ----------------------

    /// What the enumeration below expects a predicate to read back as.
    type Expected = (String, &'static str, &'static str, PushCmp, Value);

    /// A raw chain-join plan in the shape the planner proptests build
    /// (`tests/properties.rs`): `k` scans alternating `CityE` / `CountryE`,
    /// cross-joined starting at `rotation`, one `Map`, every edge and filter
    /// at the very top — plus constant comparisons on every scan, cycling
    /// through all operators and both operand orders, one of them written
    /// through the `Map`-defined variable. Returns the plan and, built
    /// alongside it (not derived from it), every single-variable
    /// `attr cmp const` conjunct normalised attribute-left.
    fn chain_with_constant_comparisons(k: usize, rotation: usize) -> (Plan, Vec<Expected>) {
        let class_of = |i: usize| {
            if i.is_multiple_of(2) {
                "CityE"
            } else {
                "CountryE"
            }
        };
        let var_of = |i: usize| format!("V{i}");
        let mut plan: Option<Plan> = None;
        for step in 0..k {
            let i = (step + rotation) % k;
            let scan = Plan::scan(class_of(i), var_of(i));
            plan = Some(match plan {
                None => scan,
                Some(p) => p.cross(scan),
            });
        }
        let mut plan = plan.expect("k >= 2").map(vec![
            ("N".to_string(), Expr::var(var_of(0)).proj("country")),
            ("M".to_string(), Expr::var(var_of(1)).proj("name")),
        ]);
        let mut expected: Vec<Expected> = Vec::new();
        // Through the Map: `M = "France"` is `V1.name = "France"` once inlined.
        plan = plan.filter(Expr::var("M").eq(Expr::constant("France")));
        expected.push((
            var_of(1),
            "CountryE",
            "name",
            PushCmp::Eq,
            Value::str("France"),
        ));
        for i in 0..k {
            let attr = if class_of(i) == "CityE" {
                ["name", "is_capital"][(i / 2 + rotation) % 2]
            } else {
                ["name", "language"][(i / 2 + rotation) % 2]
            };
            let constant = if attr == "is_capital" {
                Value::bool(true)
            } else {
                Value::str(format!("c{i}"))
            };
            let side = || Box::new(Expr::var(var_of(i)).proj(attr));
            let konst = || Box::new(Expr::Const(constant.clone()));
            let (conjunct, cmp) = match (i + rotation + k) % 7 {
                0 => (Expr::Eq(side(), konst()), PushCmp::Eq),
                1 => (Expr::Eq(konst(), side()), PushCmp::Eq),
                2 => (Expr::Neq(side(), konst()), PushCmp::Neq),
                3 => (Expr::Lt(side(), konst()), PushCmp::Lt),
                4 => (Expr::Lt(konst(), side()), PushCmp::Gt),
                5 => (Expr::Leq(side(), konst()), PushCmp::Leq),
                _ => (Expr::Leq(konst(), side()), PushCmp::Geq),
            };
            plan = plan.filter(conjunct);
            expected.push((var_of(i), class_of(i), attr, cmp, constant));
        }
        // Noise that must never be reported: a bare boolean test, an
        // attribute-to-attribute comparison on one variable, a constant-only
        // predicate, and the join edges themselves.
        plan = plan.filter(Expr::var(var_of(0)).proj("is_capital"));
        plan = plan.filter(
            Expr::var(var_of(1))
                .proj("name")
                .eq(Expr::var(var_of(1)).proj("language")),
        );
        plan = plan.filter(Expr::constant(1i64).eq(Expr::constant(1i64)));
        for i in 1..k {
            let edge = if i % 2 == 1 {
                if i == 1 {
                    Expr::var("N").eq(Expr::var(var_of(1)))
                } else {
                    Expr::var(var_of(i - 1))
                        .proj("country")
                        .eq(Expr::var(var_of(i)))
                }
            } else {
                Expr::var(var_of(i))
                    .path("country.name")
                    .eq(Expr::var(var_of(i - 1)).proj("name"))
            };
            plan = plan.filter(edge);
        }
        (plan, expected)
    }

    /// Order-free, comparable form of what was read back / expected.
    fn normalised(
        predicates: impl IntoIterator<Item = (String, String, String, PushCmp, Value)>,
    ) -> Vec<(String, String, String, String, Value)> {
        let mut out: Vec<_> = predicates
            .into_iter()
            .map(|(var, class, attr, cmp, value)| (var, class, attr, format!("{cmp:?}"), value))
            .collect();
        out.sort();
        out
    }

    fn read_back(
        plan: &Plan,
        catalog: &PushdownCatalog,
    ) -> Vec<(String, String, String, String, Value)> {
        normalised(
            pushable_predicates(plan, catalog)
                .into_iter()
                .map(|p| (p.var, p.class.to_string(), p.attr, p.cmp, p.value)),
        )
    }

    #[test]
    fn pushable_predicates_match_an_independent_enumeration_of_the_raw_plan() {
        let inst = instance();
        let refs = [&inst];
        let stats = Statistics::from_instances(&refs);
        // `CityE.is_capital` is deliberately not in the catalog.
        let allowed = [
            ("CityE", "name"),
            ("CountryE", "name"),
            ("CountryE", "language"),
        ];
        let mut catalog = PushdownCatalog::default();
        for (class, attr) in allowed {
            catalog.allow(&ClassName::new(class), attr);
        }
        for k in 2..=5usize {
            for rotation in 0..k {
                let (raw, expected) = chain_with_constant_comparisons(k, rotation);
                let planned = optimize_with_stats(raw.clone(), &stats);
                let want = normalised(
                    expected
                        .into_iter()
                        .filter(|(_, class, attr, ..)| allowed.contains(&(class, attr)))
                        .map(|(var, class, attr, cmp, value)| {
                            (var, class.to_string(), attr.to_string(), cmp, value)
                        }),
                );
                assert!(!want.is_empty());
                // Exactly the allowed conjuncts, each once (the sorted lists
                // are multisets: a conjunct reported twice would differ).
                assert_eq!(
                    read_back(&planned, &catalog),
                    want,
                    "k={k} rotation={rotation}\n{}",
                    planned.render()
                );
                // Reading is pure and repeatable, and a catalog that allows
                // nothing yields nothing.
                assert_eq!(read_back(&planned, &catalog), want);
                assert!(pushable_predicates(&planned, &PushdownCatalog::default()).is_empty());
                // The raw plan keeps every filter above the product: nothing
                // sits on a scan, so nothing is read from it.
                assert!(pushable_predicates(&raw, &catalog).is_empty());
            }
        }
    }

    #[test]
    fn pushable_predicates_on_the_reference_fallback_are_only_filters_on_scans() {
        // The Map rebinds scan variable `E`, so the planner returns the plan
        // unchanged. Only `E.name = "Paris"` sits on a scan; `C.name =
        // "France"` is above the product and the filter above the Map refers
        // to the *rebound* `E` — neither is reported.
        let plan = Plan::scan("CityE", "E")
            .filter(Expr::var("E").proj("name").eq(Expr::constant("Paris")))
            .cross(Plan::scan("CountryE", "C"))
            .filter(Expr::var("C").proj("name").eq(Expr::constant("France")))
            .map(vec![("E".to_string(), Expr::var("E").proj("country"))])
            .filter(Expr::var("E").proj("name").eq(Expr::constant("France")));
        let inst = instance();
        let refs = [&inst];
        let stats = Statistics::from_instances(&refs);
        let planned = optimize_with_stats(plan.clone(), &stats);
        assert_eq!(planned, plan, "a rebinding shape comes back unchanged");
        let mut catalog = PushdownCatalog::default();
        catalog.allow(&ClassName::new("CityE"), "name");
        catalog.allow(&ClassName::new("CountryE"), "name");
        assert_eq!(
            read_back(&planned, &catalog),
            normalised([(
                "E".into(),
                "CityE".into(),
                "name".into(),
                PushCmp::Eq,
                Value::str("Paris")
            )]),
            "{}",
            planned.render()
        );
    }
}
