//! The physical algebra.
//!
//! A [`Plan`] produces a stream of rows; a [`Query`] couples a plan with the
//! *insert actions* that build target objects from each row. Queries are the
//! unit Morphase compiles one normal-form WOL clause into.

use wol_model::{ClassName, Label, Var};

use crate::expr::Expr;

/// A relational-style plan over complex-value rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    /// Scan the extent of a class, binding each object identity to `var`.
    Scan {
        /// Class to scan.
        class: ClassName,
        /// Row variable receiving each object identity.
        var: Var,
    },
    /// Keep only rows satisfying the predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Boolean predicate.
        predicate: Expr,
    },
    /// Extend each row with computed bindings.
    Map {
        /// Input plan.
        input: Box<Plan>,
        /// New row variables and their defining expressions.
        bindings: Vec<(Var, Expr)>,
    },
    /// Nested-loop join on a predicate that is no key equality: the planner's
    /// theta join. (A product is a [`Plan::CrossJoin`].)
    NestedLoopJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join predicate, over the combined row.
        predicate: Expr,
    },
    /// Hash join on the (possibly composite) equality of key expressions:
    /// rows combine when every `(left_key, right_key)` pair evaluates equal.
    /// Each key of a pair reads its own side's row alone, whichever
    /// algorithm runs the join (probe, hash or, for a restricted run, either
    /// side driving); a key naming the other side's variable is refused. A
    /// key that is a bad value makes its row unjoinable.
    HashJoin {
        /// Left input (build side, or the index-probed side on the fast path).
        left: Box<Plan>,
        /// Right input (probe side).
        right: Box<Plan>,
        /// Equality key pairs, `(computed from left rows, computed from right
        /// rows)`. Must be non-empty.
        keys: Vec<(Expr, Expr)>,
    },
    /// Cartesian product of two inputs. Emitted by the planner only when the
    /// join graph is genuinely disconnected, so its presence in a plan is an
    /// auditable statement that no predicate relates the two sides.
    CrossJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
}

impl Plan {
    /// Scan helper.
    pub fn scan(class: impl Into<ClassName>, var: impl Into<Var>) -> Plan {
        Plan::Scan {
            class: class.into(),
            var: var.into(),
        }
    }

    /// Filter helper.
    pub fn filter(self, predicate: Expr) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Map helper.
    pub fn map(self, bindings: Vec<(Var, Expr)>) -> Plan {
        Plan::Map {
            input: Box::new(self),
            bindings,
        }
    }

    /// Nested-loop join helper.
    pub(crate) fn join(self, right: Plan, predicate: Expr) -> Plan {
        Plan::NestedLoopJoin {
            left: Box::new(self),
            right: Box::new(right),
            predicate,
        }
    }

    /// Single-key hash join helper.
    pub fn hash_join(self, right: Plan, left_key: Expr, right_key: Expr) -> Plan {
        self.hash_join_multi(right, vec![(left_key, right_key)])
    }

    /// Multi-key (composite) hash join helper.
    pub(crate) fn hash_join_multi(self, right: Plan, keys: Vec<(Expr, Expr)>) -> Plan {
        Plan::HashJoin {
            left: Box::new(self),
            right: Box::new(right),
            keys,
        }
    }

    /// Cross-join helper.
    pub fn cross(self, right: Plan) -> Plan {
        Plan::CrossJoin {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// The plan's inputs, left first.
    fn inputs(&self) -> impl Iterator<Item = &Plan> {
        let (left, right) = match self {
            Plan::Scan { .. } => (None, None),
            Plan::Filter { input, .. } | Plan::Map { input, .. } => (Some(input), None),
            Plan::NestedLoopJoin { left, right, .. }
            | Plan::HashJoin { left, right, .. }
            | Plan::CrossJoin { left, right } => (Some(left), Some(right)),
        };
        left.into_iter().chain(right).map(Box::as_ref)
    }

    /// Visit every node of the plan, each after its inputs, left to right.
    pub(crate) fn for_each_node<'p>(&'p self, f: &mut impl FnMut(&'p Plan)) {
        self.inputs().for_each(|input| input.for_each_node(f));
        f(self);
    }

    /// Every scan in the plan as `(class, row variable)`, left to right. The
    /// one walk behind the plan's read set and every variable → class map
    /// (planner estimates, projection analysis, maintenance slots).
    pub fn scans(&self) -> Vec<(&ClassName, Var)> {
        let mut out = Vec::new();
        self.for_each_node(&mut |node| {
            if let Plan::Scan { class, var } = node {
                out.push((class, *var));
            }
        });
        out
    }

    /// Every `Map` binding in the plan, each node's after its inputs'.
    pub(crate) fn bindings(&self) -> Vec<&(Var, Expr)> {
        let mut out = Vec::new();
        self.for_each_node(&mut |node| {
            if let Plan::Map { bindings, .. } = node {
                out.extend(bindings);
            }
        });
        out
    }

    /// Each scan variable's class.
    pub fn scan_classes(&self) -> std::collections::BTreeMap<Var, ClassName> {
        self.scans()
            .into_iter()
            .map(|(class, var)| (var, class.clone()))
            .collect()
    }

    /// Every expression embedded in the plan (filter predicates, map
    /// bindings, join predicates and keys), for whole-plan analyses like the
    /// federation's pushdown eligibility.
    pub fn expressions(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.for_each_node(&mut |node| match node {
            Plan::Filter { predicate, .. } | Plan::NestedLoopJoin { predicate, .. } => {
                out.push(predicate)
            }
            Plan::Map { bindings, .. } => out.extend(bindings.iter().map(|(_, e)| e)),
            Plan::HashJoin { keys, .. } => out.extend(keys.iter().flat_map(|(l, r)| [l, r])),
            Plan::Scan { .. } | Plan::CrossJoin { .. } => {}
        });
        out
    }

    /// Render the plan as an indented tree (for reports and debugging).
    pub fn render(&self) -> String {
        fn go(plan: &Plan, indent: usize, out: &mut String) {
            use std::fmt::Write as _;
            (0..indent).for_each(|_| out.push_str("  "));
            let _ = match plan {
                Plan::Scan { class, var } => writeln!(out, "Scan {class} as {var}"),
                Plan::Filter { .. } => writeln!(out, "Filter"),
                Plan::Map { bindings, .. } => {
                    out.push_str("Map [");
                    for (i, (var, _)) in bindings.iter().enumerate() {
                        out.push_str(if i == 0 { "" } else { ", " });
                        out.push_str(var.as_str());
                    }
                    writeln!(out, "]")
                }
                Plan::NestedLoopJoin { .. } => writeln!(out, "NestedLoopJoin"),
                Plan::HashJoin { keys, .. } => writeln!(out, "HashJoin ({} key(s))", keys.len()),
                Plan::CrossJoin { .. } => writeln!(out, "CrossJoin"),
            };
            plan.inputs().for_each(|input| go(input, indent + 1, out));
        }
        let mut out = String::new();
        go(self, 0, &mut out);
        out
    }
}

/// An insert action: for each row of the plan, create (or merge into) the
/// object of `class` identified by the value of `key`, setting the given
/// attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InsertAction {
    /// Target class.
    pub class: ClassName,
    /// Key expression; its value identifies the object (via the Skolem factory).
    pub key: Expr,
    /// Attribute expressions.
    pub attrs: Vec<(Label, Expr)>,
}

/// A compiled query: a plan plus the insert actions applied to each row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// Human-readable name (usually the originating clause label).
    pub name: String,
    /// The row-producing plan.
    pub plan: Plan,
    /// Insert actions applied per row.
    pub inserts: Vec<InsertAction>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_scans_and_expressions() {
        let plan = Plan::scan("CountryE", "C")
            .map(vec![("N".into(), Expr::var("C").proj("name"))])
            .filter(Expr::var("C").proj("name").eq(Expr::Const("France".into())));
        assert_eq!(
            plan.scans(),
            vec![(&ClassName::new("CountryE"), Var::new("C"))]
        );
        assert_eq!(plan.expressions().len(), 2);
    }

    #[test]
    fn join_scans_and_render() {
        let plan = Plan::scan("CityE", "E").hash_join(
            Plan::scan("CountryE", "C"),
            Expr::var("E").path("country.name"),
            Expr::var("C").proj("name"),
        );
        let vars = plan.scan_classes();
        assert!(vars.contains_key("E") && vars.contains_key("C"));
        let rendered = plan.render();
        assert!(rendered.contains("HashJoin"));
        assert!(rendered.contains("Scan CityE as E"));

        let nl = Plan::scan("A", "a").join(
            Plan::scan("B", "b"),
            Expr::var("a").proj("x").eq(Expr::var("b").proj("y")),
        );
        assert!(nl.render().contains("NestedLoopJoin"));
        assert_eq!(nl.expressions().len(), 1);
    }

    #[test]
    fn cross_join_and_multi_key_render() {
        let cross = Plan::scan("A", "a").cross(Plan::scan("B", "b"));
        assert!(cross.render().contains("CrossJoin"));
        let vars = cross.scan_classes();
        assert!(vars.contains_key("a") && vars.contains_key("b"));

        let multi = Plan::scan("A", "a").hash_join_multi(
            Plan::scan("B", "b"),
            vec![
                (Expr::var("a").proj("x"), Expr::var("b").proj("x")),
                (Expr::var("a").proj("y"), Expr::var("b").proj("y")),
            ],
        );
        assert!(multi.render().contains("HashJoin (2 key(s))"));
    }
}
