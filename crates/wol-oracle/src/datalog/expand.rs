//! The complete-clause baseline for the variant family V(k).
//!
//! A complete-clause language must describe a target object in a single rule,
//! so a target with `k` independent two-way variant attributes needs one rule
//! per combination of alternatives: `2^k` rules (Section 3.2: "the number of
//! clauses required may be exponential in the number of variants involved").
//! This module generates those rules for the `workloads::variants` family and
//! converts its source instances to flat relations so the semi-naive engine
//! can run them.

use wol_model::{ClassName, Instance, Value};

use super::ast::{DatalogAtom, DatalogProgram, DatalogRule, DatalogTerm};
use super::engine::Database;

/// The complete-clause baseline program for V(k), together with its size
/// metrics (compared against the WOL program's in benchmark E3).
#[derive(Clone, Debug)]
pub struct VariantBaseline {
    /// The generated rules (`2^k` of them).
    pub program: DatalogProgram,
    /// Number of variant attributes.
    pub k: usize,
}

impl VariantBaseline {
    /// Number of rules (always `2^k`).
    pub fn rule_count(&self) -> usize {
        self.program.len()
    }
}

/// Build the complete-clause program for V(k): the source relation is
/// `src(name, flag0, ..., flag{k-1})` and the target relation is
/// `obj(oid, name, a0, ..., a{k-1})`, with one rule per combination of the
/// `k` boolean flags, each fixing every variant attribute.
pub fn variant_baseline_program(k: usize) -> VariantBaseline {
    let mut rules = Vec::new();
    for mask in 0..(1u64 << k) {
        let mut body_terms = vec![DatalogTerm::var("N")];
        let mut head_terms = vec![
            DatalogTerm::Skolem("Obj".to_string(), vec![DatalogTerm::var("N")]),
            DatalogTerm::var("N"),
        ];
        for i in 0..k {
            let set = mask & (1 << i) != 0;
            body_terms.push(DatalogTerm::constant(set));
            head_terms.push(DatalogTerm::constant(if set { "yes" } else { "no" }));
        }
        rules.push(DatalogRule::new(
            DatalogAtom::new("obj", head_terms),
            vec![DatalogAtom::new("src", body_terms)],
        ));
    }
    VariantBaseline {
        program: DatalogProgram::new(rules),
        k,
    }
}

/// Convert a V(k) source instance (class `Src` from `workloads::variants`)
/// into the flat `src` relation the baseline program reads.
pub fn variant_facts(instance: &Instance, k: usize) -> Database {
    let mut db = Database::new();
    let mut tuples = std::collections::BTreeSet::new();
    for (_, value) in instance.objects(&ClassName::new("Src")) {
        let mut tuple = vec![value.project("name").cloned().unwrap_or(Value::Absent)];
        for i in 0..k {
            tuple.push(
                value
                    .project(&format!("flag{i}"))
                    .cloned()
                    .unwrap_or(Value::Bool(false)),
            );
        }
        tuples.insert(tuple);
    }
    db.insert("src".to_string(), tuples);
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::engine::evaluate;
    use workloads::variants;

    #[test]
    fn baseline_needs_exponentially_many_rules() {
        for k in 1..=8 {
            let baseline = variant_baseline_program(k);
            assert_eq!(baseline.rule_count(), 1 << k);
            assert_eq!(baseline.k, k);
            // Every rule is range-restricted and complete.
            for rule in &baseline.program.rules {
                assert!(rule.is_range_restricted());
                assert_eq!(rule.head.terms.len(), k + 2);
            }
        }
        // The WOL program for the same task is linear in k.
        let k = 6;
        assert!(variants::wol_program(k).clauses.len() < variant_baseline_program(k).rule_count());
    }

    #[test]
    fn baseline_and_wol_compute_the_same_objects() {
        let k = 3;
        let items = 12;
        let source = variants::generate_source(k, items, 5);

        // Baseline path.
        let baseline = variant_baseline_program(k);
        let edb = variant_facts(&source, k);
        let (db, _) = evaluate(&baseline.program, &edb);
        assert_eq!(db["obj"].len(), items);

        // WOL path.
        let program = variants::wol_program(k);
        let normal =
            wol_engine::normalize(&program, &wol_engine::NormalizeOptions::default()).unwrap();
        let target = wol_engine::execute(&normal, &[&source][..], "target").unwrap();
        assert_eq!(target.extent_size(&ClassName::new("Obj")), items);

        // The flag-to-alternative mapping agrees: compare the multiset of
        // (name, a0..ak) descriptions.
        let mut wol_rows: Vec<Vec<Value>> = target
            .objects(&ClassName::new("Obj"))
            .map(|(_, v)| {
                let mut row = vec![v.project("name").cloned().unwrap()];
                for i in 0..k {
                    let variant = v.project(&variants::variant_attr(i)).unwrap();
                    let label = variant.as_variant().unwrap().0;
                    row.push(Value::str(label));
                }
                row
            })
            .collect();
        wol_rows.sort();
        let mut baseline_rows: Vec<Vec<Value>> =
            db["obj"].iter().map(|tuple| tuple[1..].to_vec()).collect();
        baseline_rows.sort();
        assert_eq!(wol_rows, baseline_rows);
    }

    #[test]
    fn facts_extraction_handles_missing_flags() {
        let source = variants::generate_source(2, 3, 1);
        let db = variant_facts(&source, 2);
        assert_eq!(db["src"].len(), 3);
        for tuple in &db["src"] {
            assert_eq!(tuple.len(), 3);
        }
    }
}
