//! Errors raised by the CPL substrate.

use std::fmt;

use wol_model::{Label, Var};

/// Errors from lowering a plan or running it.
///
/// A plan is refused before its first row runs, with the same error on every
/// path, when an expression names a variable its layout lacks
/// ([`UnknownVariable`](CplError::UnknownVariable)) or has the wrong form
/// ([`BadPlan`](CplError::BadPlan)). At run time there is one rule: a bad
/// value ([`CplError::is_bad_value`]: a missing optional attribute, a dangling
/// identity, an uncomparable pair) reads `false` in a predicate, drops a
/// `Map` row and makes a join key unjoinable. The only per-row error that is
/// no bad value is a Skolem-memo collision ([`Model`](CplError::Model)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CplError {
    /// An expression names a row variable its layout does not bind.
    UnknownVariable(Var),
    /// A projection or operation was applied to a value of the wrong shape.
    BadValue(String),
    /// A projection found no such attribute: a [`BadValue`](CplError::BadValue)
    /// in all but representation ([`CplError::is_bad_value`]), which costs no
    /// allocation.
    MissingAttribute {
        /// [`wol_model::Value::kind`] of the projected value.
        kind: &'static str,
        /// The attribute asked for.
        label: Label,
    },
    /// Contributions to one target object disagree on an attribute: the
    /// least such `(object, attribute)` of what was applied.
    Conflict(wol_model::Conflict),
    /// A plan is malformed: a predicate conjunct that is no comparison, or a
    /// comparison where a value belongs (a `Map` binding, a join key, an
    /// insert key or attribute).
    BadPlan(String),
    /// An error bubbled up from the data model.
    Model(String),
}

impl fmt::Display for CplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CplError::UnknownVariable(v) => write!(f, "unknown row variable `{v}`"),
            CplError::BadValue(m) => write!(f, "bad value: {m}"),
            CplError::MissingAttribute { kind, label } => {
                let m = format_args!("value of kind `{kind}` has no attribute `{label}`");
                write!(f, "bad value: {m}")
            }
            CplError::Conflict(conflict) => conflict.fmt(f),
            CplError::BadPlan(m) => write!(f, "bad plan: {m}"),
            CplError::Model(m) => write!(f, "data model error: {m}"),
        }
    }
}

impl std::error::Error for CplError {}

impl CplError {
    /// Whether this is a bad value (a missing attribute, a dangling identity,
    /// an uncomparable pair), which a predicate reads as `false`, a `Map` as
    /// a dropped row and a join key as an unjoinable row.
    pub fn is_bad_value(&self) -> bool {
        matches!(
            self,
            CplError::BadValue(_) | CplError::MissingAttribute { .. }
        )
    }
}

impl From<wol_model::ModelError> for CplError {
    fn from(e: wol_model::ModelError) -> Self {
        CplError::Model(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(CplError::UnknownVariable("x".into())
            .to_string()
            .contains("x"));
        assert!(CplError::BadPlan("p".into())
            .to_string()
            .contains("bad plan"));
        let e: CplError = wol_model::ModelError::Invalid("m".into()).into();
        assert!(matches!(e, CplError::Model(_)));
        let missing = CplError::MissingAttribute {
            kind: "record",
            label: "population".into(),
        };
        assert_eq!(
            missing.to_string(),
            CplError::BadValue("value of kind `record` has no attribute `population`".into())
                .to_string()
        );
        assert!(missing.is_bad_value() && !CplError::BadPlan("p".into()).is_bad_value());
    }
}
