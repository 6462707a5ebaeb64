//! The physical algebra.
//!
//! A [`Plan`] produces a stream of rows; a [`Query`] couples a plan with the
//! *insert actions* that build target objects from each row. Queries are the
//! unit Morphase compiles one normal-form WOL clause into.

use wol_model::{ClassName, Label};

use crate::expr::Expr;

/// A relational-style plan over complex-value rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    /// Scan the extent of a class, binding each object identity to `var`.
    Scan {
        /// Class to scan.
        class: ClassName,
        /// Row variable receiving each object identity.
        var: String,
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
        bindings: Vec<(String, Expr)>,
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
    pub fn scan(class: impl Into<ClassName>, var: impl Into<String>) -> Plan {
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
    pub fn map(self, bindings: Vec<(String, Expr)>) -> Plan {
        Plan::Map {
            input: Box::new(self),
            bindings,
        }
    }

    /// Nested-loop join helper.
    pub fn join(self, right: Plan, predicate: Expr) -> Plan {
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
    pub fn hash_join_multi(self, right: Plan, keys: Vec<(Expr, Expr)>) -> Plan {
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

    /// Every scan in the plan as `(class, row variable)`, left to right. The
    /// one walk behind the plan's read set and every variable → class map
    /// (planner estimates, projection analysis, maintenance slots).
    pub fn scans(&self) -> Vec<(&ClassName, &str)> {
        fn go<'p>(plan: &'p Plan, out: &mut Vec<(&'p ClassName, &'p str)>) {
            match plan {
                Plan::Scan { class, var } => out.push((class, var)),
                Plan::Filter { input, .. } | Plan::Map { input, .. } => go(input, out),
                Plan::NestedLoopJoin { left, right, .. }
                | Plan::HashJoin { left, right, .. }
                | Plan::CrossJoin { left, right } => {
                    go(left, out);
                    go(right, out);
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out
    }

    /// Each scan variable's class.
    pub fn scan_classes(&self) -> std::collections::BTreeMap<String, ClassName> {
        self.scans()
            .into_iter()
            .map(|(class, var)| (var.to_string(), class.clone()))
            .collect()
    }

    /// Every expression embedded in the plan (filter predicates, map
    /// bindings, join predicates and keys), for whole-plan analyses like the
    /// federation's pushdown eligibility.
    pub fn expressions(&self) -> Vec<&Expr> {
        fn go<'p>(plan: &'p Plan, out: &mut Vec<&'p Expr>) {
            match plan {
                Plan::Scan { .. } => {}
                Plan::Filter { input, predicate } => {
                    out.push(predicate);
                    go(input, out);
                }
                Plan::Map { input, bindings } => {
                    out.extend(bindings.iter().map(|(_, e)| e));
                    go(input, out);
                }
                Plan::NestedLoopJoin {
                    left,
                    right,
                    predicate,
                } => {
                    out.push(predicate);
                    go(left, out);
                    go(right, out);
                }
                Plan::HashJoin { left, right, keys } => {
                    out.extend(keys.iter().flat_map(|(l, r)| [l, r]));
                    go(left, out);
                    go(right, out);
                }
                Plan::CrossJoin { left, right } => {
                    go(left, out);
                    go(right, out);
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out
    }

    /// Number of operators in the plan (used in reports).
    pub fn operator_count(&self) -> usize {
        match self {
            Plan::Scan { .. } => 1,
            Plan::Filter { input, .. } | Plan::Map { input, .. } => 1 + input.operator_count(),
            Plan::NestedLoopJoin { left, right, .. }
            | Plan::HashJoin { left, right, .. }
            | Plan::CrossJoin { left, right } => 1 + left.operator_count() + right.operator_count(),
        }
    }

    /// Render the plan as an indented tree (for reports and debugging).
    pub fn render(&self) -> String {
        fn go(plan: &Plan, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            match plan {
                Plan::Scan { class, var } => out.push_str(&format!("{pad}Scan {class} as {var}\n")),
                Plan::Filter { input, .. } => {
                    out.push_str(&format!("{pad}Filter\n"));
                    go(input, indent + 1, out);
                }
                Plan::Map { input, bindings } => {
                    out.push_str(&format!(
                        "{pad}Map [{}]\n",
                        bindings
                            .iter()
                            .map(|(v, _)| v.as_str())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                    go(input, indent + 1, out);
                }
                Plan::NestedLoopJoin { left, right, .. } => {
                    out.push_str(&format!("{pad}NestedLoopJoin\n"));
                    go(left, indent + 1, out);
                    go(right, indent + 1, out);
                }
                Plan::HashJoin { left, right, keys } => {
                    out.push_str(&format!("{pad}HashJoin ({} key(s))\n", keys.len()));
                    go(left, indent + 1, out);
                    go(right, indent + 1, out);
                }
                Plan::CrossJoin { left, right } => {
                    out.push_str(&format!("{pad}CrossJoin\n"));
                    go(left, indent + 1, out);
                    go(right, indent + 1, out);
                }
            }
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
    fn builders_and_operator_count() {
        let plan = Plan::scan("CountryE", "C")
            .map(vec![("N".to_string(), Expr::var("C").proj("name"))])
            .filter(Expr::var("C").proj("name").eq(Expr::Const("France".into())));
        assert_eq!(plan.scans(), vec![(&ClassName::new("CountryE"), "C")]);
        assert_eq!(plan.expressions().len(), 2);
        assert_eq!(plan.operator_count(), 3);
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
        assert_eq!(nl.operator_count(), 3);
    }

    #[test]
    fn cross_join_and_multi_key_render() {
        let cross = Plan::scan("A", "a").cross(Plan::scan("B", "b"));
        assert!(cross.render().contains("CrossJoin"));
        assert_eq!(cross.operator_count(), 3);
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
