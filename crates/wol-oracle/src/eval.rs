//! The reference CPL expression evaluator, over **named** rows.
//!
//! [`eval`] walks an [`Expr`] against a row mapping variable names to values:
//! each variable is a name lookup and a copy, and each projection through an
//! object identity copies the whole record out of the instance to read one
//! field. That is how `cpl` evaluated before it lowered expressions against
//! plan layouts and evaluated by reference ([`cpl::Lowered`]); it stays here
//! as the reference the lowered evaluator is held to — on every expression
//! the same value, or an error of the same variant and text.

use std::collections::BTreeMap;

use cpl::expr::{EvalCtx, Row};
use cpl::{CplError, Expr, Result};
use wol_model::Value;

/// Evaluate an expression against a named row.
pub fn eval(expr: &Expr, row: &Row, ctx: &mut EvalCtx<'_>) -> Result<Value> {
    match expr {
        Expr::Var(v) => row
            .get(v)
            .cloned()
            .ok_or_else(|| CplError::UnknownVariable(v.clone())),
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
            let mut out = BTreeMap::new();
            for (label, sub) in fields {
                out.insert(label.clone(), eval(sub, row, ctx)?);
            }
            Ok(Value::Record(out))
        }
        Expr::Variant(label, payload) => Ok(Value::Variant(
            label.clone(),
            Box::new(eval(payload, row, ctx)?),
        )),
        Expr::Skolem(class, key) => {
            let key_value = eval(key, row, ctx)?;
            Ok(Value::Oid(ctx.mk_skolem(class, &key_value)))
        }
        Expr::Eq(a, b) => Ok(Value::Bool(eval(a, row, ctx)? == eval(b, row, ctx)?)),
        Expr::Neq(a, b) => Ok(Value::Bool(eval(a, row, ctx)? != eval(b, row, ctx)?)),
        Expr::Lt(a, b) => compare(&eval(a, row, ctx)?, &eval(b, row, ctx)?)
            .map(|o| Value::Bool(o == std::cmp::Ordering::Less)),
        Expr::Leq(a, b) => compare(&eval(a, row, ctx)?, &eval(b, row, ctx)?)
            .map(|o| Value::Bool(o != std::cmp::Ordering::Greater)),
        Expr::And(es) => {
            for e in es {
                if !truthy(&eval(e, row, ctx)?)? {
                    return Ok(Value::Bool(false));
                }
            }
            Ok(Value::Bool(true))
        }
        Expr::Not(e) => Ok(Value::Bool(!truthy(&eval(e, row, ctx)?)?)),
    }
}

/// Evaluate a predicate against a named row: a bad value — a missing
/// optional attribute, a dangling identity, an uncomparable pair — counts as
/// `false`; a non-boolean value is an error, nested or not.
pub fn eval_predicate(expr: &Expr, row: &Row, ctx: &mut EvalCtx<'_>) -> Result<bool> {
    match eval(expr, row, ctx) {
        Ok(value) => truthy(&value),
        Err(e) if e.is_bad_value() => Ok(false),
        Err(e) => Err(e),
    }
}

fn truthy(value: &Value) -> Result<bool> {
    match value {
        Value::Bool(b) => Ok(*b),
        other => Err(CplError::NotBoolean(other.kind())),
    }
}

fn compare(a: &Value, b: &Value) -> Result<std::cmp::Ordering> {
    a.ordered_cmp(b).ok_or_else(|| {
        CplError::BadValue(format!(
            "cannot compare values of kinds `{}` and `{}`",
            a.kind(),
            b.kind()
        ))
    })
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use cpl::{Lowered, Parallelism};
    use proptest::prelude::*;
    use wol_model::{ClassName, Instance, Oid};

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

    /// Expressions over `X` (an `A` object), `Y` (a `B` object or a dangling
    /// one), `Z` (a scalar or a record) and `W` (in no layout): every `Expr`
    /// variant, projection chains through identities, and comparisons of
    /// every kind pair.
    fn expr(rng: &mut Rng, depth: u32) -> Expr {
        let labels = ["n", "r", "s", "b", "o", "missing"];
        if depth == 0 || rng.below(4) == 0 {
            return match rng.below(5) {
                0 => Expr::Const(scalar(rng)),
                _ => Expr::var(*rng.pick(&["X", "Y", "Z", "X", "W"])),
            };
        }
        // Half the sub-expressions are scalar operands, so comparisons find
        // equal, lesser and greater pairs about as often as they fail.
        let sub = |rng: &mut Rng| {
            let operand = rng.below(2) == 0;
            Box::new(if operand {
                scalar_operand(rng)
            } else {
                expr(rng, depth - 1)
            })
        };
        match rng.below(12) {
            0..=2 => {
                let base = sub(rng);
                Expr::Proj(base, rng.pick(&labels).to_string())
            }
            3 => {
                let n = rng.below(3);
                Expr::Record((0..n).map(|i| (format!("f{i}"), *sub(rng))).collect())
            }
            4 => Expr::Variant("v".to_string(), sub(rng)),
            5 => Expr::Skolem(ClassName::new(rng.pick(&["T", "U"])), sub(rng)),
            6 => Expr::Eq(sub(rng), sub(rng)),
            7 => Expr::Neq(sub(rng), sub(rng)),
            8 => Expr::Lt(sub(rng), sub(rng)),
            9 => Expr::Leq(sub(rng), sub(rng)),
            10 => {
                let n = rng.below(4);
                Expr::And((0..n).map(|_| *sub(rng)).collect())
            }
            _ => Expr::Not(sub(rng)),
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
    /// every `(reference, lowered)` outcome, values and predicates alike,
    /// and both factories' final state.
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
        let layout = ["Z", "X", "Y"].map(String::from);
        let x = rng.pick(&xs).clone();
        let b = rng.pick(&bs).clone();
        let y = rng.pick(&[b, dangling]).clone();
        let slots = vec![z, Value::oid(x), Value::oid(y)];
        let named: Row = layout.iter().cloned().zip(slots.iter().cloned()).collect();
        let refs = [&inst];
        let ctx = || EvalCtx::new(&refs).with_parallelism(Parallelism::sequential());
        let (mut reference_ctx, mut lowered_ctx) = (ctx(), ctx());
        let mut outcomes = Vec::new();
        for _ in 0..16 {
            let e = expr(&mut rng, 4);
            let lowered = Lowered::new(&e, &layout);
            outcomes.push((
                eval(&e, &named, &mut reference_ctx),
                lowered.eval(&slots, &mut lowered_ctx).map(Cow::into_owned),
            ));
            outcomes.push((
                eval_predicate(&e, &named, &mut reference_ctx).map(Value::Bool),
                lowered
                    .eval_predicate(&slots, &mut lowered_ctx)
                    .map(Value::Bool),
            ));
        }
        let factory = |ctx: &EvalCtx<'_>| format!("{:?}", ctx.factory);
        (outcomes, factory(&reference_ctx), factory(&lowered_ctx))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lowered, by-reference evaluator gives the reference's value —
        /// or its error, variant and text — on every generated expression,
        /// and mints the same Skolem identities in the same order.
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
    /// values, Skolem identities and every error the evaluators raise.
    #[test]
    fn generated_expressions_reach_every_outcome() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..256 {
            for (outcome, _) in both(seed).0 {
                seen.insert(match outcome {
                    Ok(Value::Oid(_)) => "identity",
                    Ok(Value::Bool(_)) => "boolean",
                    Ok(_) => "value",
                    Err(CplError::UnknownVariable(_)) => "unknown variable",
                    Err(CplError::MissingAttribute { .. }) => "missing attribute",
                    Err(CplError::NotBoolean(_)) => "not a boolean",
                    Err(CplError::BadValue(m)) if m.starts_with("dangling") => "dangling",
                    Err(CplError::BadValue(m)) if m.starts_with("cannot compare") => "uncomparable",
                    Err(other) => panic!("unexpected error {other}"),
                });
            }
        }
        assert_eq!(seen.len(), 8, "outcomes reached: {seen:?}");
    }
}
