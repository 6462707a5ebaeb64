//! Query-level parallel scheduling.
//!
//! A compiled Morphase program is a list of [`cpl::Query`] values executed in
//! program order. Operator-level parallelism (inside one query) leaves a
//! second lever on the table: *independent queries* — the common case, since
//! normal-form clauses read only source extents — can be evaluated
//! concurrently on the same [`cpl::WorkerPool`].
//!
//! [`plan_schedule`] builds a dependency-aware schedule:
//!
//! * Each query's **read set** is the classes its plan scans
//!   ([`cpl::Plan::scanned_classes`]); its **write set** is the target
//!   classes its insert actions create or merge into.
//! * Query `j` *conflicts with* an earlier query `i` when `i` writes an
//!   extent `j` reads (a write→read chain must stay ordered) or `j` writes
//!   an extent `i` reads (an anti-dependency: the read must not observe the
//!   later write).
//! * The schedule groups queries into **stages**: contiguous program-order
//!   runs with no internal conflicts. Stages execute strictly one after
//!   another; the queries *within* a stage may be evaluated concurrently.
//!   Contiguity is what keeps the pipeline's *application* order — and with
//!   it merge-conflict detection and every statistic — exactly the program
//!   order, so the target instance is bit-identical to a fully sequential
//!   run.
//! * A **self-dependent** query (one that reads an extent it also writes —
//!   the fixpoint shape) conflicts with itself: it never overlaps anything,
//!   always occupying a stage of its own.
//!
//! Nothing else shapes a stage. In particular a Skolem-bearing query
//! overlaps like any other: an identity is a function of its class and key,
//! so a query evaluated on a worker context mints exactly the identities it
//! would mint on the main one. Queries of a stage are *evaluated*
//! concurrently ([`cpl::evaluate_query`] on worker contexts) and *applied* on
//! the main context in program order ([`cpl::apply_evaluated_query`]); the
//! driver lives in [`crate::pipeline`].

use std::collections::BTreeSet;

use cpl::Query;
use wol_model::ClassName;

/// One query's scheduling metadata.
#[derive(Clone, Debug)]
pub struct QueryNode {
    /// Source/target classes the query's plan scans.
    pub reads: BTreeSet<ClassName>,
    /// Target classes the query's insert actions write.
    pub writes: BTreeSet<ClassName>,
    /// Whether the query reads an extent it also writes (fixpoint shape):
    /// such a query conflicts with itself and never overlaps anything.
    pub self_dependent: bool,
}

/// A dependency-aware execution schedule over a compiled program.
#[derive(Clone, Debug)]
pub struct QuerySchedule {
    /// Per-query metadata, indexed like the input queries.
    pub nodes: Vec<QueryNode>,
    /// Stages in execution order: each stage is a contiguous run of query
    /// indices (ascending program order) that may evaluate concurrently.
    /// Concatenating the stages yields `0..queries.len()` exactly.
    pub stages: Vec<Vec<usize>>,
}

impl QuerySchedule {
    /// The largest number of queries any stage may overlap.
    pub fn max_overlap(&self) -> usize {
        self.stages.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Analyse one query into its scheduling metadata.
fn analyse(query: &Query) -> QueryNode {
    let reads = query.plan.scanned_classes();
    let writes: BTreeSet<ClassName> = query.inserts.iter().map(|i| i.class.clone()).collect();
    let self_dependent = reads.intersection(&writes).next().is_some();
    QueryNode {
        reads,
        writes,
        self_dependent,
    }
}

/// Whether queries `a` and `b` must not evaluate concurrently: one writes an
/// extent the other reads (in either direction — the write→read chain and
/// the anti-dependency both force ordering).
fn conflicts(a: &QueryNode, b: &QueryNode) -> bool {
    a.writes.intersection(&b.reads).next().is_some()
        || b.writes.intersection(&a.reads).next().is_some()
}

/// Build the execution schedule for a compiled program (see module docs).
pub fn plan_schedule(queries: &[Query]) -> QuerySchedule {
    let nodes: Vec<QueryNode> = queries.iter().map(analyse).collect();
    let mut stages: Vec<Vec<usize>> = Vec::new();
    for (index, node) in nodes.iter().enumerate() {
        // The current stage is open unless it holds a self-dependent query
        // (always alone by construction) or one conflicting with this one.
        let open = |stage: &Vec<usize>| {
            !node.self_dependent
                && stage
                    .iter()
                    .all(|&i| !nodes[i].self_dependent && !conflicts(&nodes[i], node))
        };
        match stages.last_mut() {
            Some(current) if open(current) => current.push(index),
            _ => stages.push(vec![index]),
        }
    }
    QuerySchedule { nodes, stages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpl::{Expr, InsertAction, Plan};

    fn query(name: &str, scans: &[(&str, &str)], writes: &[&str]) -> Query {
        let mut plan: Option<Plan> = None;
        for (class, var) in scans {
            let scan = Plan::scan(*class, *var);
            plan = Some(match plan {
                None => scan,
                Some(p) => p.cross(scan),
            });
        }
        Query {
            name: name.to_string(),
            plan: plan.expect("at least one scan"),
            inserts: writes
                .iter()
                .map(|class| InsertAction {
                    class: ClassName::new(*class),
                    key: Expr::var(scans[0].1).proj("name"),
                    attrs: vec![("name".into(), Expr::var(scans[0].1).proj("name"))],
                })
                .collect(),
        }
    }

    /// Disjoint queries (distinct reads, distinct writes) share one stage
    /// and may overlap.
    #[test]
    fn disjoint_queries_overlap_in_one_stage() {
        let queries = vec![
            query("q0", &[("A", "a")], &["X"]),
            query("q1", &[("B", "b")], &["Y"]),
            query("q2", &[("C", "c")], &["Z"]),
        ];
        let schedule = plan_schedule(&queries);
        assert_eq!(schedule.stages, vec![vec![0, 1, 2]]);
        assert_eq!(schedule.max_overlap(), 3);
        assert!(schedule.nodes.iter().all(|n| !n.self_dependent));
    }

    /// A write→read chain stays ordered: the reader lands in a later stage
    /// than the writer, and an unrelated query can still share the reader's
    /// stage.
    #[test]
    fn write_read_chains_stay_ordered() {
        let queries = vec![
            query("writer", &[("A", "a")], &["X"]),
            query("reader", &[("X", "x")], &["Y"]),
            query("bystander", &[("B", "b")], &["Z"]),
        ];
        let schedule = plan_schedule(&queries);
        assert_eq!(schedule.stages, vec![vec![0], vec![1, 2]]);
        // And the anti-dependency direction (read before write) also splits.
        let queries = vec![
            query("reader", &[("X", "x")], &["Y"]),
            query("writer", &[("A", "a")], &["X"]),
        ];
        let schedule = plan_schedule(&queries);
        assert_eq!(schedule.stages, vec![vec![0], vec![1]]);
    }

    /// Queries writing the *same* class may overlap: application is strictly
    /// program-ordered on the main thread, so write–write merges (partial
    /// clauses keyed alike) stay deterministic.
    #[test]
    fn write_write_queries_may_overlap() {
        let queries = vec![
            query("q0", &[("A", "a")], &["X"]),
            query("q1", &[("B", "b")], &["X"]),
        ];
        let schedule = plan_schedule(&queries);
        assert_eq!(schedule.stages, vec![vec![0, 1]]);
    }

    /// A self-dependent (fixpoint-shaped) query never overlaps itself or
    /// anything else: it always occupies a singleton stage, wherever it
    /// falls in the program.
    #[test]
    fn self_dependent_queries_never_overlap() {
        let queries = vec![
            query("q0", &[("A", "a")], &["X"]),
            query("fixpoint", &[("Y", "y")], &["Y"]),
            query("q2", &[("B", "b")], &["Z"]),
            query("q3", &[("C", "c")], &["W"]),
        ];
        let schedule = plan_schedule(&queries);
        assert!(schedule.nodes[1].self_dependent);
        assert_eq!(schedule.stages, vec![vec![0], vec![1], vec![2, 3]]);
        // Even as the first query, the fixpoint stays alone.
        let queries = vec![
            query("fixpoint", &[("Y", "y")], &["Y"]),
            query("q1", &[("A", "a")], &["X"]),
        ];
        let schedule = plan_schedule(&queries);
        assert_eq!(schedule.stages, vec![vec![0], vec![1]]);
    }

    /// Stages are contiguous program-order runs (application order is the
    /// program order), so a conflict splits the stage even if a later query
    /// would have been conflict-free with the earlier stage.
    #[test]
    fn stages_are_contiguous_program_order_runs() {
        let queries = vec![
            query("q0", &[("A", "a")], &["X"]),
            query("q1", &[("X", "x")], &["Y"]), // conflicts with q0
            query("q2", &[("A", "a2")], &["W"]), // no conflict with q1, joins its stage
        ];
        let schedule = plan_schedule(&queries);
        assert_eq!(schedule.stages, vec![vec![0], vec![1, 2]]);
        let flat: Vec<usize> = schedule.stages.iter().flatten().copied().collect();
        assert_eq!(flat, vec![0, 1, 2]);
    }

    /// Queries whose Skolem identities are compared, projected through,
    /// relayed through a `Map` binding, filtered out or used as a join key
    /// overlap like any other query, and evaluating
    /// each stage's queries on worker contexts then applying them in program
    /// order lands on exactly the target and factory of a one-context run.
    #[test]
    fn skolem_bearing_queries_overlap_and_equal_the_sequential_run() {
        use cpl::exec::{apply_evaluated_query, evaluate_query, execute_query, ExecStats};
        use cpl::expr::EvalCtx;
        use wol_model::{Instance, Value};

        let mut source = Instance::new("src");
        for i in 0..6 {
            source.insert_fresh(
                &ClassName::new("A"),
                Value::record([
                    ("k", Value::str(format!("k{}", i % 3))),
                    ("live", Value::bool(i % 2 == 0)),
                ]),
            );
            source.insert_fresh(
                &ClassName::new("B"),
                Value::record([
                    ("name", Value::str(format!("b{i}"))),
                    ("r", Value::str(format!("k{}", i % 4))),
                ]),
            );
        }
        let t = || Expr::Skolem(ClassName::new("T"), Box::new(Expr::var("a").proj("k")));
        let minting = |name: &str, writes: &str, next: fn(Plan) -> Plan| Query {
            name: name.to_string(),
            plan: next(Plan::scan("A", "a").map(vec![("t".to_string(), t())])),
            inserts: vec![InsertAction {
                class: ClassName::new(writes),
                key: Expr::var("a").proj("k"),
                attrs: vec![("t".into(), Expr::var("t"))],
            }],
        };
        let queries = vec![
            query("q0", &[("B", "b")], &["Y"]),
            Query {
                name: "compares_skolem".to_string(),
                plan: Plan::scan("A", "a").filter(t().eq(Expr::var("a"))),
                inserts: vec![InsertAction {
                    class: ClassName::new("X"),
                    key: Expr::var("a").proj("k"),
                    attrs: vec![],
                }],
            },
            minting("projected", "P", |p| p.filter(Expr::var("t").proj("x"))),
            minting("compared", "C", |p| {
                p.filter(Expr::var("t").eq(Expr::var("a")))
            }),
            minting("relayed", "R", |p| {
                p.map(vec![("u".to_string(), Expr::var("t"))])
                    .filter(Expr::var("u").eq(Expr::var("t")))
            }),
            minting("filtered", "N", |p| p.filter(Expr::var("a").proj("live"))),
            minting("joined", "J", |p| {
                p.hash_join(
                    Plan::scan("B", "b"),
                    Expr::var("a").proj("k"),
                    Expr::var("b").proj("r"),
                )
            }),
        ];
        let schedule = plan_schedule(&queries);
        assert_eq!(
            schedule.stages,
            vec![(0..queries.len()).collect::<Vec<_>>()]
        );

        let refs = [&source];
        let mut sequential = EvalCtx::new(&refs).with_parallelism(cpl::Parallelism::sequential());
        let mut expected = Instance::new("target");
        for query in &queries {
            execute_query(
                query,
                &mut sequential,
                &mut expected,
                &mut ExecStats::default(),
            )
            .unwrap();
        }
        for threads in [2, 8] {
            let mut ctx = EvalCtx::new(&refs)
                .with_parallelism(cpl::Parallelism::new(threads).with_min_items(1));
            let mut target = Instance::new("target");
            for stage in &schedule.stages {
                let evaluated: Vec<_> = stage
                    .iter()
                    .map(|&qi| {
                        let mut worker = EvalCtx::claim_worker(&refs)
                            .with_parallelism(cpl::Parallelism::new(threads).with_min_items(1));
                        evaluate_query(&queries[qi], &mut worker, &mut ExecStats::default())
                            .unwrap()
                    })
                    .collect();
                for (&qi, evaluated) in stage.iter().zip(evaluated) {
                    let mut stats = ExecStats::default();
                    apply_evaluated_query(
                        &queries[qi],
                        evaluated,
                        &mut ctx,
                        &mut target,
                        &mut stats,
                    )
                    .unwrap();
                }
            }
            assert_eq!(target, expected, "target diverged at {threads} threads");
            assert_eq!(
                format!("{:?}", ctx.factory),
                format!("{:?}", sequential.factory)
            );
        }
        assert!(expected.extent_size(&ClassName::new("J")) > 0);
    }
}
