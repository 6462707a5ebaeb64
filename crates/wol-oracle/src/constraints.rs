//! The reference constraint check.
//!
//! [`check_constraint_reference`] checks a constraint the materialising way:
//! it collects every body binding with `wol_engine::match_body`, then, for
//! each binding, plans and matches the head's witness atoms afresh from a
//! copy of that binding, collecting every witness. It is the reference for
//! the engine's streaming check (`wol_engine::check_constraints`, and the
//! `checked` counts `wol_engine::check_batch` certifies): the same
//! violations in the same order, with the same `detail` and `oids`, and the
//! same number of body bindings.

use std::collections::BTreeMap;

use wol_engine::{
    eval_skolem_key, match_body, try_eval_term, Bindings, Databases, EngineError, MatchStats,
    Result, Violation,
};
use wol_lang::ast::{Atom, Clause, Term};
use wol_model::{display::render_value, ClassName, Oid, SkolemFactory, Value};

/// Object identities occurring directly in the given values, deduplicated,
/// preserving first-occurrence order.
fn oid_witnesses<'a>(values: impl IntoIterator<Item = &'a Value>) -> Vec<Oid> {
    let mut out: Vec<Oid> = Vec::new();
    for value in values {
        if let Value::Oid(oid) = value {
            if !out.contains(oid) {
                out.push(oid.clone());
            }
        }
    }
    out
}

/// Check `clause` against `dbs` in full: its violations, in binding order,
/// and the number of body bindings examined.
///
/// A head equality with a Skolem side, `object = Mk_C(args)`, is a key
/// requirement — one object per key value and one key value per object,
/// across all bindings — and every other head atom needs a witness: a
/// binding whose witness match finds nothing, or fails, is a violation.
pub fn check_constraint_reference(
    clause: &Clause,
    dbs: &Databases<'_>,
) -> Result<(Vec<Violation>, u64)> {
    let mut skolem = SkolemFactory::new();
    let mut stats = MatchStats::default();
    let clause_name = clause
        .label
        .clone()
        .unwrap_or_else(|| "<unlabelled>".to_string());
    let mut key_atoms = Vec::new();
    let mut witness_atoms = Vec::new();
    for atom in &clause.head {
        match atom {
            Atom::Eq(Term::Skolem(class, args), object)
            | Atom::Eq(object, Term::Skolem(class, args)) => key_atoms.push((object, class, args)),
            _ => witness_atoms.push(atom.clone()),
        }
    }
    let mut violations = Vec::new();
    let mut key_to_obj: BTreeMap<(ClassName, Value), Value> = BTreeMap::new();
    let mut obj_to_key: BTreeMap<(ClassName, Value), Value> = BTreeMap::new();

    let body_bindings = match_body(&clause.body, dbs, &mut skolem, Bindings::new(), &mut stats)?;
    let checked = body_bindings.len() as u64;
    for binding in body_bindings {
        for &(object, class, args) in &key_atoms {
            let key_value = eval_skolem_key(args, &binding, dbs, &mut skolem).map_err(|e| {
                EngineError::Eval(format!("cannot evaluate Skolem key in {clause_name}: {e}"))
            })?;
            let Some(object_value) = try_eval_term(object, &binding, dbs, &mut skolem) else {
                continue;
            };
            let class_key = (class.clone(), key_value.clone());
            if let Some(previous) = key_to_obj.get(&class_key) {
                if previous != &object_value {
                    violations.push(Violation {
                        clause: clause_name.clone(),
                        detail: format!(
                            "key {key_value:?} of class `{class}` is associated with two distinct objects"
                        ),
                        oids: oid_witnesses([previous, &object_value]),
                    });
                    continue;
                }
            }
            key_to_obj.insert(class_key, object_value.clone());
            let obj_key = (class.clone(), object_value);
            if let Some(previous) = obj_to_key.get(&obj_key) {
                if previous != &key_value {
                    violations.push(Violation {
                        clause: clause_name.clone(),
                        detail: format!(
                            "an object of class `{class}` has two distinct key values ({previous:?} and {key_value:?})"
                        ),
                        oids: oid_witnesses([&obj_key.1]),
                    });
                    continue;
                }
            }
            obj_to_key.insert(obj_key, key_value);
        }
        if witness_atoms.is_empty() {
            continue;
        }
        let witnesses = match_body(
            &witness_atoms,
            dbs,
            &mut skolem,
            binding.clone(),
            &mut stats,
        );
        if !witnesses.is_ok_and(|list| !list.is_empty()) {
            let parts: Vec<String> = binding
                .iter()
                .map(|(var, value)| format!("{var} = {}", render_value(value)))
                .collect();
            violations.push(Violation {
                clause: clause_name.clone(),
                detail: format!("no head witness for binding [{}]", parts.join(", ")),
                oids: oid_witnesses(binding.iter().map(|(_, value)| value)),
            });
        }
    }
    Ok((violations, checked))
}
