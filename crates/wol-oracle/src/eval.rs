//! The reference CPL expression evaluator, over **named** rows.
//!
//! [`eval`] walks a value [`Expr`] against a row mapping variable names to
//! values: each variable is a name lookup and a copy, and each projection
//! through an object identity copies the whole record out of the instance to
//! read one field. [`eval_predicate`] decides a conjunction of comparisons
//! over such values. That is how `cpl` evaluated before it lowered
//! expressions against plan layouts and evaluated by reference
//! ([`cpl::Lowered`], [`cpl::Predicate`]); it stays here as the
//! reference the lowered evaluator is held to — on every expression the same
//! value, or an error of the same variant and text.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use cpl::expr::EvalCtx;
use cpl::{CplError, Expr, Result};
use wol_model::{Value, Var};

/// A named row: each variable's value under its name.
type Row = BTreeMap<Var, Value>;

/// Evaluate a value expression against a named row; a comparison is no value.
pub fn eval(expr: &Expr, row: &Row, ctx: &mut EvalCtx<'_>) -> Result<Value> {
    match expr {
        Expr::Var(v) => row.get(v).cloned().ok_or(CplError::UnknownVariable(*v)),
        Expr::Const(value) => Ok(value.clone()),
        Expr::Proj(base, label) => {
            let base_value = eval(base, row, ctx)?;
            let record = match &base_value {
                Value::Oid(oid) => ctx
                    .deref(oid)
                    .cloned()
                    .ok_or_else(|| CplError::BadValue(format!("dangling object identity {oid}")))?,
                other => other.clone(),
            };
            record
                .project(label)
                .cloned()
                .ok_or_else(|| CplError::MissingAttribute {
                    kind: record.kind(),
                    label: label.as_str().into(),
                })
        }
        Expr::Record(fields) => {
            let mut out = Vec::new();
            for (label, sub) in fields {
                out.push((label.clone(), eval(sub, row, ctx)?));
            }
            Ok(Value::Record(out.into_iter().collect()))
        }
        Expr::Variant(label, payload) => Ok(Value::Variant(
            label.clone(),
            Box::new(eval(payload, row, ctx)?),
        )),
        Expr::Skolem(class, key) => {
            let key_value = eval(key, row, ctx)?;
            Ok(Value::Oid(ctx.mk_skolem(class, &key_value)?))
        }
        Expr::Eq(..) | Expr::Neq(..) | Expr::Lt(..) | Expr::Leq(..) | Expr::And(_) => {
            Err(CplError::BadPlan(format!(
                "a comparison is a predicate, not a value: {expr:?}"
            )))
        }
    }
}

/// Evaluate a predicate — comparisons under `And` — against a named row,
/// left to right: a bad value (a missing optional attribute, a dangling
/// identity) or an uncomparable pair makes it `false`.
pub fn eval_predicate(expr: &Expr, row: &Row, ctx: &mut EvalCtx<'_>) -> Result<bool> {
    let (a, b) = match expr {
        Expr::And(conjuncts) => {
            for conjunct in conjuncts {
                if !eval_predicate(conjunct, row, ctx)? {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
        Expr::Eq(a, b) | Expr::Neq(a, b) | Expr::Lt(a, b) | Expr::Leq(a, b) => (a, b),
        other => {
            let m = format!("a predicate conjunct must be a comparison, found {other:?}");
            return Err(CplError::BadPlan(m));
        }
    };
    let (a, b) = match eval(a, row, ctx).and_then(|a| Ok((a, eval(b, row, ctx)?))) {
        Ok(values) => values,
        Err(e) if e.is_bad_value() => return Ok(false),
        Err(e) => return Err(e),
    };
    Ok(match expr {
        Expr::Eq(..) => a == b,
        Expr::Neq(..) => a != b,
        Expr::Lt(..) => a.ordered_cmp(&b) == Some(Ordering::Less),
        _ => a.ordered_cmp(&b).is_some_and(|o| o != Ordering::Greater),
    })
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use cpl::{Lowered, Parallelism, Predicate};
    use proptest::prelude::*;
    use wol_model::{ClassName, Instance, Label, Oid};

    use super::*;

    /// A small deterministic generator (xorshift).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % bound
        }

        fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.below(items.len() as u64) as usize]
        }
    }

    /// An int, real, string or boolean: comparable pairs, uncomparable
    /// pairs, equal ints and reals of one magnitude.
    fn scalar(rng: &mut Rng) -> Value {
        match rng.below(4) {
            0 => Value::int(rng.below(3) as i64),
            1 => Value::real(rng.below(3) as f64),
            2 => Value::str(*rng.pick(&["x", "y", "z"])),
            _ => Value::bool(rng.below(2) == 0),
        }
    }

    /// A record whose attributes are each missing one time in four and of a
    /// random kind, with an optional link that may dangle.
    fn record(rng: &mut Rng, links: &[Oid]) -> Value {
        let mut fields: Vec<(&str, Value)> = Vec::new();
        for label in ["n", "r", "s", "b"] {
            if rng.below(4) != 0 {
                fields.push((label, scalar(rng)));
            }
        }
        match rng.below(4) {
            0 => {}
            1 => fields.push(("o", Value::oid(Oid::new(ClassName::new("B"), 999)))),
            _ if !links.is_empty() => fields.push(("o", Value::oid(rng.pick(links).clone()))),
            _ => {}
        }
        Value::record(fields)
    }

    /// Value expressions over `X` (an `A` object), `Y` (a `B` object or a
    /// dangling one), `Z` (a scalar or a record) and `W` (in no layout):
    /// every value constructor, and projection chains through identities.
    fn value(rng: &mut Rng, depth: u32) -> Expr {
        let labels = ["n", "r", "s", "b", "o", "missing"];
        if depth == 0 || rng.below(4) == 0 {
            return match rng.below(5) {
                0 => Expr::Const(scalar(rng)),
                _ => Expr::var(*rng.pick(&["X", "Y", "Z", "X", "W"])),
            };
        }
        let sub = |rng: &mut Rng| Box::new(operand(rng, depth - 1));
        match rng.below(6) {
            0..=2 => {
                let base = sub(rng);
                Expr::Proj(base, Label::new(rng.pick(&labels)))
            }
            3 => {
                let n = rng.below(3);
                Expr::Record(
                    (0..n)
                        .map(|i| (format!("f{i}").into(), *sub(rng)))
                        .collect(),
                )
            }
            4 => Expr::Variant("v".into(), sub(rng)),
            _ => Expr::Skolem(ClassName::new(rng.pick(&["T", "U"])), sub(rng)),
        }
    }

    /// Half scalar operands, half values, so comparisons find equal, lesser
    /// and greater pairs about as often as they fail.
    fn operand(rng: &mut Rng, depth: u32) -> Expr {
        if rng.below(2) == 0 {
            scalar_operand(rng)
        } else {
            value(rng, depth)
        }
    }

    /// Predicates: comparisons of every kind pair, under nested `And`s.
    fn predicate(rng: &mut Rng, depth: u32) -> Expr {
        let (a, b) = (operand(rng, depth), operand(rng, depth));
        match rng.below(if depth == 0 { 4 } else { 5 }) {
            0 => a.eq(b),
            1 => Expr::Neq(Box::new(a), Box::new(b)),
            2 => Expr::Lt(Box::new(a), Box::new(b)),
            3 => Expr::Leq(Box::new(a), Box::new(b)),
            _ => Expr::and(
                (0..rng.below(4))
                    .map(|_| predicate(rng, depth - 1))
                    .collect(),
            ),
        }
    }

    /// A constant, `Z`, or an attribute of `X`, `Y` or `X.o` — a scalar
    /// when the attribute is there.
    fn scalar_operand(rng: &mut Rng) -> Expr {
        let label = *rng.pick(&["n", "r", "s", "b"]);
        match rng.below(5) {
            0 => Expr::Const(scalar(rng)),
            1 => Expr::var("Z"),
            2 => Expr::var("X").proj(label),
            3 => Expr::var("Y").proj(label),
            _ => Expr::var("X").proj("o").proj(label),
        }
    }

    /// One generated instance and row, evaluated through both evaluators:
    /// every `(reference, lowered)` outcome, values and predicates drawn
    /// apart, and both factories' final state. An expression naming `W` is
    /// refused at lowering, whether or not evaluation would reach `W`, and
    /// neither evaluator runs it: its outcome is the refusal, on both sides.
    #[allow(clippy::type_complexity)]
    fn both(seed: u64) -> (Vec<(Result<Value>, Result<Value>)>, String, String) {
        let mut rng = Rng(seed | 1);
        let mut inst = Instance::new("src");
        let mut bs = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let value = record(&mut rng, &bs);
            bs.push(inst.insert_fresh(&ClassName::new("B"), value));
        }
        let mut xs = Vec::new();
        for _ in 0..1 + rng.below(3) {
            let value = record(&mut rng, &bs);
            xs.push(inst.insert_fresh(&ClassName::new("A"), value));
        }
        let dangling = Oid::new(ClassName::new("B"), 999);
        let z = if rng.below(2) == 0 {
            scalar(&mut rng)
        } else {
            record(&mut rng, &bs)
        };
        // A layout out of name order, so slots are not the named row's order.
        let layout = ["Z", "X", "Y"].map(Var::new);
        let x = rng.pick(&xs).clone();
        let b = rng.pick(&bs).clone();
        let y = rng.pick(&[b, dangling]).clone();
        let slots = vec![z, Value::oid(x), Value::oid(y)];
        let named: Row = layout.iter().cloned().zip(slots.iter().cloned()).collect();
        let refs = [&inst];
        let ctx = || EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let (mut reference_ctx, mut lowered_ctx) = (ctx(), ctx());
        let mut outcomes = Vec::new();
        let refused = |e: &Expr, error: CplError| {
            let names_w = format!("{e:?}").contains("Var(\"W\")");
            assert!(
                names_w && error == CplError::UnknownVariable("W".into()),
                "{e:?}: {error}"
            );
            (Err(error.clone()), Err(error))
        };
        for _ in 0..16 {
            let e = value(&mut rng, 4);
            outcomes.push(match Lowered::new(&e, &layout) {
                Ok(lowered) => (
                    eval(&e, &named, &mut reference_ctx),
                    lowered.eval(&slots, &mut lowered_ctx).map(Cow::into_owned),
                ),
                Err(error) => refused(&e, error),
            });
            let p = predicate(&mut rng, 3);
            outcomes.push(match Predicate::new(&p, &layout) {
                Ok(lowered) => (
                    eval_predicate(&p, &named, &mut reference_ctx).map(Value::Bool),
                    lowered.holds(&slots, &mut lowered_ctx).map(Value::Bool),
                ),
                Err(error) => refused(&p, error),
            });
        }
        let factory = |ctx: &EvalCtx<'_>| format!("{:?}", ctx.factory);
        (outcomes, factory(&reference_ctx), factory(&lowered_ctx))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lowered, by-reference evaluator gives the reference's value —
        /// or its error, variant and text — on every generated value and
        /// predicate it does not refuse, and mints the same Skolem identities
        /// in the same order.
        #[test]
        fn lowered_evaluation_equals_the_named_row_reference(seed in 0u64..u64::MAX) {
            let (outcomes, reference_factory, lowered_factory) = both(seed);
            for (reference, lowered) in &outcomes {
                prop_assert_eq!(reference, lowered);
                if let (Err(r), Err(l)) = (reference, lowered) {
                    prop_assert_eq!(r.to_string(), l.to_string());
                }
            }
            prop_assert_eq!(reference_factory, lowered_factory);
        }
    }

    /// The generator is not vacuous: across the proptest's seeds it reaches
    /// values, Skolem identities, both truth values, every bad value and the
    /// refusal of an unbound name.
    #[test]
    fn generated_expressions_reach_every_outcome() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..256 {
            for (outcome, _) in both(seed).0 {
                seen.insert(match outcome {
                    Ok(Value::Oid(_)) => "identity",
                    Ok(Value::Bool(true)) => "true",
                    Ok(Value::Bool(false)) => "false",
                    Ok(_) => "value",
                    Err(CplError::UnknownVariable(_)) => "refused: unknown variable",
                    Err(CplError::MissingAttribute { .. }) => "missing attribute",
                    Err(CplError::BadValue(m)) if m.starts_with("dangling") => "dangling",
                    Err(other) => panic!("unexpected error {other}"),
                });
            }
        }
        assert_eq!(seen.len(), 7, "outcomes reached: {seen:?}");
    }
}
