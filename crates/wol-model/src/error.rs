//! Error type for the data model.

use std::fmt;

use crate::oid::Oid;
use crate::types::{ClassName, Label};

/// Two contributions to one object give one of its attributes different
/// values, so no target satisfies both ([`crate::Record::merge`] names the
/// attribute). Ordered by object, then attribute: every write path reports
/// the least conflict among those it finds.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Conflict {
    /// The object.
    pub oid: Oid,
    /// The least attribute its contributions disagree on.
    pub label: Label,
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Conflict { oid, label } = self;
        write!(f, "object {oid} receives conflicting values for `{label}`")
    }
}

impl std::error::Error for Conflict {}

/// Errors raised while building or validating schemas, instances and keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A class referenced by a type or value is not declared in the schema.
    UnknownClass(ClassName),
    /// A class was declared twice in a schema.
    DuplicateClass(ClassName),
    /// The value type associated with a class is itself a class type, which the
    /// model forbids (Section 2.1: "where `τ^C` is not a class type").
    ClassTypedClass(ClassName),
    /// A record or variant type declares the same label twice.
    DuplicateLabel {
        /// The offending label.
        label: String,
        /// Human readable description of where it occurred.
        context: String,
    },
    /// A variant type with no alternatives, or a set of a non-base/non-class
    /// element where the model requires one.
    MalformedType(String),
    /// A value did not conform to the expected type.
    TypeMismatch {
        /// What the schema required.
        expected: String,
        /// What the value actually was.
        found: String,
        /// Where in the value tree the mismatch happened.
        context: String,
    },
    /// An object identity appears in a value but is not present in any extent.
    DanglingOid(String),
    /// An object identity was inserted into the extent of a class it does not
    /// belong to.
    WrongClass {
        /// Class of the identity.
        oid_class: ClassName,
        /// Extent it was inserted into.
        extent: ClassName,
    },
    /// The same object identity was inserted twice.
    DuplicateOid(String),
    /// Key evaluation failed (missing attribute, unexpected value shape, ...).
    KeyEvaluation(String),
    /// A key specification is violated: two distinct objects share a key value.
    KeyViolation {
        /// Class whose key is violated.
        class: ClassName,
        /// Rendering of the shared key value.
        key: String,
    },
    /// A key specification produced a value that still contains object
    /// identities (the paper requires key types not to involve classes).
    KeyContainsOid(ClassName),
    /// Two distinct keys of a class claim one Skolem identity, or one key
    /// two identities: a hard error, never resolved by probing.
    SkolemCollision(String),
    /// A projection path could not be followed.
    PathError(String),
    /// Contributions to one object disagree on an attribute.
    Conflict(Conflict),
    /// Generic invariant violation with a description.
    Invalid(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownClass(c) => write!(f, "unknown class `{c}`"),
            ModelError::DuplicateClass(c) => write!(f, "class `{c}` declared more than once"),
            ModelError::ClassTypedClass(c) => {
                write!(
                    f,
                    "class `{c}` has a class type as its associated value type"
                )
            }
            ModelError::DuplicateLabel { label, context } => {
                write!(f, "duplicate label `{label}` in {context}")
            }
            ModelError::MalformedType(msg) => write!(f, "malformed type: {msg}"),
            ModelError::TypeMismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "type mismatch at {context}: expected {expected}, found {found}"
            ),
            ModelError::DanglingOid(o) => write!(f, "dangling object identity {o}"),
            ModelError::WrongClass { oid_class, extent } => write!(
                f,
                "object identity of class `{oid_class}` inserted into extent of `{extent}`"
            ),
            ModelError::DuplicateOid(o) => write!(f, "object identity {o} inserted twice"),
            ModelError::KeyEvaluation(msg) => write!(f, "key evaluation failed: {msg}"),
            ModelError::KeyViolation { class, key } => {
                write!(
                    f,
                    "key violation in class `{class}`: key value {key} is shared"
                )
            }
            ModelError::KeyContainsOid(c) => write!(
                f,
                "key specification for class `{c}` produced a value containing object identities"
            ),
            ModelError::SkolemCollision(msg) => write!(f, "Skolem identity collision: {msg}"),
            ModelError::PathError(msg) => write!(f, "path error: {msg}"),
            ModelError::Conflict(conflict) => conflict.fmt(f),
            ModelError::Invalid(msg) => write!(f, "invalid: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ClassName;

    #[test]
    fn display_unknown_class() {
        let e = ModelError::UnknownClass(ClassName::new("CityA"));
        assert_eq!(e.to_string(), "unknown class `CityA`");
    }

    #[test]
    fn display_type_mismatch() {
        let e = ModelError::TypeMismatch {
            expected: "int".into(),
            found: "str".into(),
            context: "CityA.name".into(),
        };
        assert!(e.to_string().contains("expected int"));
        assert!(e.to_string().contains("found str"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<ModelError>();
    }
}
