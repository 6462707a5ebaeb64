//! Errors raised by the WOL engine.

use std::fmt;

/// Errors from clause evaluation, constraint checking or normalisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A term could not be evaluated (unbound variable, bad projection, ...).
    Eval(String),
    /// One or more constraints are violated; carries the full violation list
    /// in the deterministic order produced by
    /// [`check_constraints`](crate::constraints::check_constraints).
    ConstraintsViolated {
        /// Every violation found, in clause order then binding order.
        violations: Vec<crate::constraints::Violation>,
    },
    /// A constraint certificate failed to decode or to re-check against a
    /// snapshot.
    Certificate(String),
    /// The transformation program is recursive and cannot be normalised under
    /// Morphase's syntactic restrictions (Section 5).
    RecursiveProgram(String),
    /// A target object cannot be completely determined: the program is
    /// incomplete for the given class/attribute.
    Incomplete {
        /// The target class concerned.
        class: String,
        /// Explanation (e.g. which attribute or key part is missing).
        detail: String,
    },
    /// Normalisation produced no usable definition for a clause.
    Normalisation(String),
    /// An error bubbled up from the data model.
    Model(String),
    /// An error bubbled up from the language front end.
    Lang(String),
    /// Any other invariant violation.
    Invalid(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Eval(m) => write!(f, "evaluation error: {m}"),
            EngineError::ConstraintsViolated { violations } => {
                write!(f, "{} constraint violation(s):", violations.len())?;
                for v in violations {
                    write!(f, " [{}] {};", v.clause, v.detail)?;
                }
                Ok(())
            }
            EngineError::Certificate(m) => write!(f, "constraint certificate error: {m}"),
            EngineError::RecursiveProgram(m) => write!(f, "recursive transformation program: {m}"),
            EngineError::Incomplete { class, detail } => {
                write!(f, "incomplete description of class `{class}`: {detail}")
            }
            EngineError::Normalisation(m) => write!(f, "normalisation error: {m}"),
            EngineError::Model(m) => write!(f, "data model error: {m}"),
            EngineError::Lang(m) => write!(f, "language error: {m}"),
            EngineError::Invalid(m) => write!(f, "invalid: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<wol_model::ModelError> for EngineError {
    fn from(e: wol_model::ModelError) -> Self {
        EngineError::Model(e.to_string())
    }
}

impl From<wol_lang::LangError> for EngineError {
    fn from(e: wol_lang::LangError) -> Self {
        EngineError::Lang(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(EngineError::Eval("x".into())
            .to_string()
            .contains("evaluation"));
        let many = EngineError::ConstraintsViolated {
            violations: vec![
                crate::constraints::Violation {
                    clause: "C4".into(),
                    detail: "first".into(),
                    oids: Vec::new(),
                },
                crate::constraints::Violation {
                    clause: "C8".into(),
                    detail: "second".into(),
                    oids: Vec::new(),
                },
            ],
        }
        .to_string();
        assert!(many.contains("2 constraint violation(s)"));
        assert!(many.contains("[C4] first"));
        assert!(many.contains("[C8] second"));
        assert!(EngineError::Certificate("bad crc".into())
            .to_string()
            .contains("certificate"));
        assert!(EngineError::RecursiveProgram("loop".into())
            .to_string()
            .contains("recursive"));
        assert!(EngineError::Incomplete {
            class: "CityT".into(),
            detail: "capital".into()
        }
        .to_string()
        .contains("CityT"));
    }

    #[test]
    fn conversions() {
        let m: EngineError = wol_model::ModelError::Invalid("m".into()).into();
        assert!(matches!(m, EngineError::Model(_)));
        let l: EngineError = wol_lang::LangError::Invalid("l".into()).into();
        assert!(matches!(l, EngineError::Lang(_)));
    }
}
