//! The reference clause-body matcher.
//!
//! [`match_body_reference`] enumerates bindings the way the paper's "apply
//! the clauses directly" strategy would: scan whole extents, clone the
//! binding set at every extension, and never consult an index. It shares
//! only term evaluation with the engine ([`eval_term`], [`try_eval_term`],
//! [`is_pattern`]) and destructures patterns on its own, so a planning,
//! probing, frame or destructuring bug in `wol_engine::match_body` shows up
//! as a disagreement between the two.

use wol_engine::{eval_term, is_pattern, try_eval_term};
use wol_engine::{Bindings, Databases, EngineError, MatchStats, Result};
use wol_lang::ast::{Atom, Term};
use wol_model::{SkolemFactory, Value};

/// Destructure `value` against `pattern`, extending a copy of `bindings`: an
/// unbound variable binds; a record or variant destructures; anything else
/// — a bound variable, a constant, a projection, a Skolem term — must
/// evaluate to the value.
fn match_pattern(
    pattern: &Term,
    value: &Value,
    bindings: &Bindings,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
) -> Option<Bindings> {
    fn bind(
        pattern: &Term,
        value: &Value,
        bindings: &mut Bindings,
        dbs: &Databases<'_>,
        skolem: &mut SkolemFactory,
    ) -> bool {
        match (pattern, value) {
            (Term::Var(var), _) if !bindings.contains_key(var) => {
                bindings.insert(*var, value.clone());
                true
            }
            (Term::Record(fields), Value::Record(actual)) => fields.iter().all(|(label, sub)| {
                actual
                    .get(label)
                    .is_some_and(|field| bind(sub, field, bindings, dbs, skolem))
            }),
            (Term::Variant(label, payload), Value::Variant(actual, inner)) => {
                label == actual && bind(payload, inner, bindings, dbs, skolem)
            }
            (Term::Record(_) | Term::Variant(..), _) => false,
            _ => try_eval_term(pattern, bindings, dbs, skolem).is_some_and(|v| v == *value),
        }
    }
    let mut extended = bindings.clone();
    bind(pattern, value, &mut extended, dbs, skolem).then_some(extended)
}

/// Can this atom be processed under the current bindings?
fn atom_ready(atom: &Atom, bindings: &Bindings) -> bool {
    let bound = |t: &Term| t.var_set().iter().all(|v| bindings.contains_key(v));
    match atom {
        // Membership can always be processed: either check (bound) or
        // enumerate the extent (unbound variable / pattern).
        Atom::Member(_, _) => true,
        Atom::Eq(s, t) => {
            (bound(s) && bound(t)) || (bound(s) && is_pattern(t)) || (bound(t) && is_pattern(s))
        }
        Atom::Neq(s, t) | Atom::Lt(s, t) | Atom::Leq(s, t) => bound(s) && bound(t),
        Atom::InSet(_, set) => bound(set),
    }
}

/// Extend `bindings` in every way that makes `atom` true, cloning the binding
/// map once per extension (the naive strategy).
fn match_atom(
    atom: &Atom,
    bindings: &Bindings,
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
    stats: &mut MatchStats,
) -> Result<Vec<Bindings>> {
    match atom {
        Atom::Member(term, class) => {
            if let Some(value) = try_eval_term(term, bindings, dbs, skolem) {
                // Check membership of an already-determined object.
                match value {
                    Value::Oid(oid) => {
                        if oid.class() == class && dbs.contains(&oid) {
                            Ok(vec![bindings.clone()])
                        } else {
                            Ok(vec![])
                        }
                    }
                    _ => Ok(vec![]),
                }
            } else {
                // Enumerate the extent and match the term as a pattern.
                stats.extents_scanned += 1;
                let mut out = Vec::new();
                for oid in dbs.extent(class) {
                    let value = Value::Oid(oid.clone());
                    if let Some(extended) = match_pattern(term, &value, bindings, dbs, skolem) {
                        out.push(extended);
                    }
                }
                Ok(out)
            }
        }
        Atom::Eq(s, t) => {
            let sv = try_eval_term(s, bindings, dbs, skolem);
            let tv = try_eval_term(t, bindings, dbs, skolem);
            let bound = |term: &Term| term.var_set().iter().all(|v| bindings.contains_key(v));
            match (sv, tv) {
                (Some(a), Some(b)) => Ok(if a == b {
                    vec![bindings.clone()]
                } else {
                    vec![]
                }),
                (Some(a), None) => {
                    if bound(t) {
                        // Fully bound but not evaluable (e.g. a missing
                        // optional attribute): the equality simply fails.
                        Ok(vec![])
                    } else {
                        Ok(match_pattern(t, &a, bindings, dbs, skolem)
                            .into_iter()
                            .collect())
                    }
                }
                (None, Some(b)) => {
                    if bound(s) {
                        Ok(vec![])
                    } else {
                        Ok(match_pattern(s, &b, bindings, dbs, skolem)
                            .into_iter()
                            .collect())
                    }
                }
                (None, None) => {
                    if bound(s) || bound(t) {
                        // At least one side is fully bound but cannot be
                        // evaluated (e.g. a missing optional field): the
                        // equality has no witness.
                        Ok(vec![])
                    } else {
                        Err(EngineError::Eval(format!(
                            "cannot orient equality {} = {}: neither side is evaluable",
                            wol_lang::render_term(s),
                            wol_lang::render_term(t)
                        )))
                    }
                }
            }
        }
        Atom::Neq(s, t) | Atom::Lt(s, t) | Atom::Leq(s, t) => {
            // A bad value (a missing optional attribute, a dangling
            // identity) or an uncomparable pair: the comparison is false.
            let a = eval_term(s, bindings, dbs, skolem).ok();
            let b = eval_term(t, bindings, dbs, skolem).ok();
            let (Some(a), Some(b)) = (a, b) else {
                return Ok(vec![]);
            };
            let holds = match atom {
                Atom::Neq(_, _) => a != b,
                Atom::Lt(_, _) => a.ordered_cmp(&b) == Some(std::cmp::Ordering::Less),
                _ => a
                    .ordered_cmp(&b)
                    .is_some_and(|o| o != std::cmp::Ordering::Greater),
            };
            Ok(if holds {
                vec![bindings.clone()]
            } else {
                vec![]
            })
        }
        Atom::InSet(elem, set) => {
            let set_value = eval_term(set, bindings, dbs, skolem)?;
            let elements: Vec<Value> = match set_value {
                Value::Set(items) => items.into_iter().collect(),
                Value::List(items) => items,
                other => {
                    return Err(EngineError::Eval(format!(
                        "`member` applied to a non-set value of kind `{}`",
                        other.kind()
                    )))
                }
            };
            let mut out = Vec::new();
            for item in elements {
                if let Some(extended) = match_pattern(elem, &item, bindings, dbs, skolem) {
                    out.push(extended);
                }
            }
            Ok(out)
        }
    }
}

/// The naive generate-and-test matcher: repeatedly picks a *ready* atom —
/// preferring cheap filters over extent enumerations — and extends the
/// binding set by cloning it at every extension. This is the "apply the
/// clauses directly" strategy the paper contrasts Morphase with, and the
/// reference semantics for the engine's indexed [`match_body`].
///
/// [`match_body`]: wol_engine::match_body
pub fn match_body_reference(
    atoms: &[Atom],
    dbs: &Databases<'_>,
    skolem: &mut SkolemFactory,
    initial: Bindings,
    stats: &mut MatchStats,
) -> Result<Vec<Bindings>> {
    fn go(
        remaining: &[Atom],
        dbs: &Databases<'_>,
        skolem: &mut SkolemFactory,
        bindings: Bindings,
        out: &mut Vec<Bindings>,
        stats: &mut MatchStats,
    ) -> Result<()> {
        if remaining.is_empty() {
            out.push(bindings);
            return Ok(());
        }
        // Pick the best ready atom: prefer fully-bound filters, then oriented
        // equalities, then memberships/enumerations.
        let fully_bound = |atom: &Atom| atom.var_set().iter().all(|v| bindings.contains_key(v));
        let position = remaining
            .iter()
            .position(fully_bound)
            .or_else(|| {
                remaining
                    .iter()
                    .position(|a| matches!(a, Atom::Eq(_, _)) && atom_ready(a, &bindings))
            })
            .or_else(|| remaining.iter().position(|a| atom_ready(a, &bindings)));
        let Some(position) = position else {
            return Err(EngineError::Eval(
                "no atom can be processed: the clause body is not range-restricted".to_string(),
            ));
        };
        let atom = &remaining[position];
        let rest: Vec<Atom> = remaining
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != position)
            .map(|(_, a)| a.clone())
            .collect();
        let extensions = match_atom(atom, &bindings, dbs, skolem, stats)?;
        stats.bindings_considered += extensions.len();
        for extended in extensions {
            go(&rest, dbs, skolem, extended, out, stats)?;
        }
        Ok(())
    }

    let mut out = Vec::new();
    go(atoms, dbs, skolem, initial, &mut out, stats)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_lang::parse_clause;
    use wol_model::Instance;

    #[test]
    fn unorientable_equality_reported() {
        let inst = Instance::new("euro");
        let dbs = Databases::new(&[&inst][..]);
        // Neither side of `A = B` can ever be evaluated.
        let clause = parse_clause("Z = 1 <= A = B").unwrap();
        let (mut sk, mut stats) = (SkolemFactory::new(), MatchStats::default());
        assert!(
            match_body_reference(&clause.body, &dbs, &mut sk, Bindings::new(), &mut stats).is_err()
        );
    }
}
