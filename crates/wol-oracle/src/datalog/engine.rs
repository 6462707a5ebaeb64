//! Semi-naive bottom-up evaluation of Datalog-with-Skolem programs.

use std::collections::{BTreeMap, BTreeSet};

use wol_model::{ClassName, SkolemFactory, Value};

use super::ast::{DatalogAtom, DatalogProgram, DatalogTerm};

/// A database of flat relations: predicate name → set of tuples.
pub type Database = BTreeMap<String, BTreeSet<Vec<Value>>>;

type Bindings = BTreeMap<String, Value>;

fn match_tuple(atom: &DatalogAtom, tuple: &[Value], bindings: &Bindings) -> Option<Bindings> {
    if atom.terms.len() != tuple.len() {
        return None;
    }
    let mut out = bindings.clone();
    for (term, value) in atom.terms.iter().zip(tuple.iter()) {
        match term {
            DatalogTerm::Var(v) => match out.get(v) {
                Some(existing) if existing != value => return None,
                Some(_) => {}
                None => {
                    out.insert(v.clone(), value.clone());
                }
            },
            DatalogTerm::Const(c) => {
                if c != value {
                    return None;
                }
            }
            // Skolem terms in rule bodies are not supported (they never appear
            // in the baseline programs generated here).
            DatalogTerm::Skolem(_, _) => return None,
        }
    }
    Some(out)
}

fn eval_term(
    term: &DatalogTerm,
    bindings: &Bindings,
    factory: &mut SkolemFactory,
) -> Option<Value> {
    match term {
        DatalogTerm::Var(v) => bindings.get(v).cloned(),
        DatalogTerm::Const(c) => Some(c.clone()),
        DatalogTerm::Skolem(name, args) => {
            let mut arg_values = Vec::new();
            for a in args {
                arg_values.push(eval_term(a, bindings, factory)?);
            }
            let key = if arg_values.len() == 1 {
                arg_values.into_iter().next().expect("length checked")
            } else {
                Value::List(arg_values)
            };
            Some(Value::Oid(factory.mk(&ClassName::new(name.as_str()), &key)))
        }
    }
}

/// Statistics of a semi-naive evaluation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of iterations until the fixpoint.
    pub iterations: usize,
    /// Number of facts derived (including duplicates of existing facts).
    pub derivations: usize,
}

/// Evaluate a program bottom-up (semi-naive: each iteration only joins against
/// the facts newly derived in the previous iteration for one body atom).
/// Returns the final database and statistics.
pub fn evaluate(program: &DatalogProgram, edb: &Database) -> (Database, EvalStats) {
    let mut db: Database = edb.clone();
    let mut delta: Database = edb.clone();
    let mut factory = SkolemFactory::new();
    let mut stats = EvalStats::default();

    loop {
        stats.iterations += 1;
        let mut new_delta: Database = Database::new();
        for rule in &program.rules {
            // Semi-naive: require at least one body atom to match the delta.
            for pivot in 0..rule.body.len() {
                let mut partials = vec![Bindings::new()];
                let mut ok = true;
                for (i, atom) in rule.body.iter().enumerate() {
                    let relation = if i == pivot { &delta } else { &db };
                    let tuples = match relation.get(&atom.predicate) {
                        Some(t) => t,
                        None => {
                            ok = false;
                            break;
                        }
                    };
                    let mut next = Vec::new();
                    for bindings in &partials {
                        for tuple in tuples {
                            if let Some(extended) = match_tuple(atom, tuple, bindings) {
                                next.push(extended);
                            }
                        }
                    }
                    partials = next;
                    if partials.is_empty() {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    continue;
                }
                for bindings in partials {
                    let mut tuple = Vec::new();
                    let mut complete = true;
                    for term in &rule.head.terms {
                        match eval_term(term, &bindings, &mut factory) {
                            Some(v) => tuple.push(v),
                            None => {
                                complete = false;
                                break;
                            }
                        }
                    }
                    if !complete {
                        continue;
                    }
                    stats.derivations += 1;
                    let existing = db.entry(rule.head.predicate.clone()).or_default();
                    if !existing.contains(&tuple) {
                        new_delta
                            .entry(rule.head.predicate.clone())
                            .or_default()
                            .insert(tuple);
                    }
                }
            }
        }
        if new_delta.values().all(BTreeSet::is_empty) {
            break;
        }
        for (predicate, tuples) in &new_delta {
            db.entry(predicate.clone())
                .or_default()
                .extend(tuples.iter().cloned());
        }
        delta = new_delta;
        if stats.iterations > 10_000 {
            break;
        }
    }
    (db, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::ast::DatalogRule;

    fn edge_db() -> Database {
        let mut db = Database::new();
        let edges: BTreeSet<Vec<Value>> = [(1, 2), (2, 3), (3, 4)]
            .iter()
            .map(|(a, b)| vec![Value::int(*a), Value::int(*b)])
            .collect();
        db.insert("edge".to_string(), edges);
        db
    }

    #[test]
    fn transitive_closure() {
        // path(X, Y) :- edge(X, Y).  path(X, Z) :- edge(X, Y), path(Y, Z).
        let program = DatalogProgram::new(vec![
            DatalogRule::new(
                DatalogAtom::new("path", vec![DatalogTerm::var("X"), DatalogTerm::var("Y")]),
                vec![DatalogAtom::new(
                    "edge",
                    vec![DatalogTerm::var("X"), DatalogTerm::var("Y")],
                )],
            ),
            DatalogRule::new(
                DatalogAtom::new("path", vec![DatalogTerm::var("X"), DatalogTerm::var("Z")]),
                vec![
                    DatalogAtom::new("edge", vec![DatalogTerm::var("X"), DatalogTerm::var("Y")]),
                    DatalogAtom::new("path", vec![DatalogTerm::var("Y"), DatalogTerm::var("Z")]),
                ],
            ),
        ]);
        let (db, stats) = evaluate(&program, &edge_db());
        assert_eq!(db["path"].len(), 6); // (1,2)(2,3)(3,4)(1,3)(2,4)(1,4)
        assert!(stats.iterations >= 3);
        assert!(stats.derivations >= 6);
    }

    #[test]
    fn skolem_heads_create_stable_identities() {
        // person(mk_person(N), N) :- name(N).
        let mut edb = Database::new();
        edb.insert(
            "name".to_string(),
            [vec![Value::str("Ada")], vec![Value::str("Alan")]]
                .into_iter()
                .collect(),
        );
        let program = DatalogProgram::new(vec![DatalogRule::new(
            DatalogAtom::new(
                "person",
                vec![
                    DatalogTerm::Skolem("Person".to_string(), vec![DatalogTerm::var("N")]),
                    DatalogTerm::var("N"),
                ],
            ),
            vec![DatalogAtom::new("name", vec![DatalogTerm::var("N")])],
        )]);
        let (db, _) = evaluate(&program, &edb);
        assert_eq!(db["person"].len(), 2);
        for tuple in &db["person"] {
            assert!(matches!(tuple[0], Value::Oid(_)));
        }
    }

    #[test]
    fn constants_filter_tuples() {
        let mut edb = Database::new();
        edb.insert(
            "src".to_string(),
            [
                vec![Value::str("a"), Value::bool(true)],
                vec![Value::str("b"), Value::bool(false)],
            ]
            .into_iter()
            .collect(),
        );
        let program = DatalogProgram::new(vec![DatalogRule::new(
            DatalogAtom::new("flagged", vec![DatalogTerm::var("N")]),
            vec![DatalogAtom::new(
                "src",
                vec![DatalogTerm::var("N"), DatalogTerm::constant(true)],
            )],
        )]);
        let (db, _) = evaluate(&program, &edb);
        assert_eq!(db["flagged"].len(), 1);
        assert!(db["flagged"].contains(&vec![Value::str("a")]));
    }

    #[test]
    fn empty_program_terminates_immediately() {
        let (db, stats) = evaluate(&DatalogProgram::default(), &edge_db());
        assert_eq!(db["edge"].len(), 3);
        assert_eq!(stats.iterations, 1);
    }
}
