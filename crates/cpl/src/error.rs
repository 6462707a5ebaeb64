//! Errors raised by the CPL substrate.

use std::fmt;

use wol_model::Label;

/// Errors from expression evaluation or plan execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CplError {
    /// A row variable referenced by an expression is not present in the row.
    UnknownVariable(String),
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
    /// A predicate evaluated to a value of this kind, not a boolean: an
    /// error on every path, never read as `false`.
    NotBoolean(&'static str),
    /// Contributions to one target object disagree on an attribute: the
    /// least such `(object, attribute)` of what was applied.
    Conflict(wol_model::Conflict),
    /// A plan is malformed (e.g. a hash join whose key expressions reference
    /// variables the corresponding side does not produce).
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
            CplError::NotBoolean(kind) => {
                let m = format_args!("expected a boolean predicate value, found `{kind}`");
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
        assert!(missing.is_bad_value() && !CplError::NotBoolean("str").is_bad_value());
        assert_eq!(
            CplError::NotBoolean("str").to_string(),
            "bad value: expected a boolean predicate value, found `str`"
        );
    }
}
