//! The query schedule: one stage.
//!
//! A compiled Morphase program is a list of [`cpl::Query`] values. Nothing
//! orders them beyond program order:
//!
//! * A normal clause's body holds only source atoms, so no compiled query
//!   scans the target, and no query can read another's writes.
//! * Writes settle through one definition, [`wol_model::Record::merge`],
//!   over the *set* of contributions to each object
//!   ([`cpl::apply_evaluated_query`]), so the order queries apply in changes
//!   neither the target nor the conflict a failing program reports.
//!
//! So every query may be evaluated concurrently with every other one, and
//! the schedule is a single stage holding the whole program; the pipeline
//! ([`crate::pipeline`]) evaluates each query as a job on the shared worker
//! pool and applies them in program order. [`plan_schedule`] is kept, with
//! its signature, for the benchmark's frozen replay of the pipeline.

use cpl::Query;

/// The execution schedule of a compiled program.
///
/// Kept only for the benchmark's frozen surface (ROADMAP item 1A).
#[derive(Clone, Debug)]
pub struct QuerySchedule {
    /// Stages in execution order, each a run of query indices in program
    /// order that may evaluate concurrently: always one stage holding
    /// `0..queries.len()`.
    pub stages: Vec<Vec<usize>>,
}

/// The execution schedule of a compiled program: one stage (see the module
/// docs).
///
/// Kept only for the benchmark's frozen surface (ROADMAP item 1A).
/// `tests/alloc_budget.rs` calls it too.
pub fn plan_schedule(queries: &[Query]) -> QuerySchedule {
    QuerySchedule {
        stages: vec![(0..queries.len()).collect()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpl::{Expr, InsertAction, Plan};
    use wol_model::ClassName;

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

    /// Whatever the queries read or write — source extents, the same
    /// target class, a class another query writes — the schedule is one
    /// stage in program order.
    #[test]
    fn every_program_is_one_stage() {
        assert_eq!(plan_schedule(&[]).stages, vec![Vec::<usize>::new()]);
        let queries = vec![
            query("q0", &[("A", "a")], &["X"]),
            query("q1", &[("X", "x")], &["Y"]),
            query("q2", &[("B", "b")], &["X"]),
            query("q3", &[("Y", "y")], &["Y"]),
        ];
        assert_eq!(plan_schedule(&queries).stages, vec![vec![0, 1, 2, 3]]);
    }

    /// Queries whose Skolem identities are compared, projected through,
    /// relayed through a `Map` binding, filtered out or used as a join key
    /// overlap like any other query, and evaluating them on worker contexts
    /// then applying them in program order lands on exactly the target and
    /// factory of a one-context run.
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
