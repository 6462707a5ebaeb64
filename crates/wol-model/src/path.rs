//! Attribute paths.
//!
//! The paper writes `x.a` for "take the value of object `x` and project out
//! attribute `a`", and chains projections through object identities
//! (`E.country.name`). A [`Path`] is such a chain of attribute labels; path
//! evaluation dereferences object identities through an [`Instance`].

use std::fmt;

use crate::error::ModelError;
use crate::instance::Instance;
use crate::types::Label;
use crate::values::Value;
use crate::Result;

/// A (possibly empty) chain of attribute projections.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Path {
    segments: Vec<Label>,
}

impl Path {
    /// The empty path (the identity projection).
    pub(crate) fn empty() -> Self {
        Path {
            segments: Vec::new(),
        }
    }

    /// A path from an iterator of labels.
    pub fn new<I, L>(segments: I) -> Self
    where
        I: IntoIterator<Item = L>,
        L: Into<Label>,
    {
        Path {
            segments: segments.into_iter().map(Into::into).collect(),
        }
    }

    /// Parse a dotted path such as `"country.name"`.
    pub fn parse(s: &str) -> Self {
        if s.is_empty() {
            return Path::empty();
        }
        Path::new(s.split('.').map(str::to_string))
    }

    /// The labels of the path.
    pub fn segments(&self) -> &[Label] {
        &self.segments
    }

    /// True if the path has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Evaluate the path against a value in the context of an instance.
    ///
    /// Each segment projects a record field. When the current value is an
    /// object identity, it is first dereferenced through the instance (this is
    /// the paper's `x.a` notation: "if `x ∈ σ^C` then take the value `V^C(x)`
    /// ... and project out the attribute `a`").
    pub(crate) fn eval<'a>(&self, start: &'a Value, instance: &'a Instance) -> Result<&'a Value> {
        let mut current = start;
        for segment in &self.segments {
            // Dereference through object identity if necessary.
            if let Value::Oid(oid) = current {
                current = instance.value_or_err(oid)?;
            }
            current = current.project(segment).ok_or_else(|| {
                ModelError::PathError(format!(
                    "value of kind `{}` has no attribute `{segment}` (path {self})",
                    current.kind()
                ))
            })?;
        }
        Ok(current)
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segments.is_empty() {
            return write!(f, "<self>");
        }
        write!(f, "{}", self.segments.join("."))
    }
}

impl From<&str> for Path {
    fn from(s: &str) -> Self {
        Path::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::Oid;
    use crate::types::ClassName;

    fn setup() -> (Instance, Oid, Oid) {
        let mut inst = Instance::new("euro");
        let fr = inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::str("France")),
                ("currency", Value::str("franc")),
            ]),
        );
        let paris = inst.insert_fresh(
            &ClassName::new("CityE"),
            Value::record([
                ("name", Value::str("Paris")),
                ("is_capital", Value::bool(true)),
                ("country", Value::oid(fr.clone())),
            ]),
        );
        (inst, fr, paris)
    }

    #[test]
    fn parse_and_display() {
        let p = Path::parse("country.name");
        assert_eq!(p.len(), 2);
        assert_eq!(p.to_string(), "country.name");
        assert_eq!(Path::empty().to_string(), "<self>");
        assert_eq!(Path::parse(""), Path::empty());
        assert!(Path::empty().is_empty());
        let q: Path = "a.b".into();
        assert_eq!(q.segments(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn eval_simple_projection() {
        let (inst, _, paris) = setup();
        let v = inst.value(&paris).unwrap();
        let name = Path::parse("name").eval(v, &inst).unwrap();
        assert_eq!(name, &Value::str("Paris"));
    }

    #[test]
    fn eval_through_oid() {
        let (inst, _, paris) = setup();
        let v = inst.value(&paris).unwrap();
        // E.country.name — chains through the CountryE object identity.
        let name = Path::parse("country.name").eval(v, &inst).unwrap();
        assert_eq!(name, &Value::str("France"));
    }

    #[test]
    fn eval_starting_from_oid_value() {
        let (inst, _, paris) = setup();
        let start = Value::oid(paris);
        let cap = Path::parse("is_capital").eval(&start, &inst).unwrap();
        assert_eq!(cap, &Value::bool(true));
    }

    #[test]
    fn eval_missing_attribute_fails() {
        let (inst, _, paris) = setup();
        let v = inst.value(&paris).unwrap();
        let err = Path::parse("population").eval(v, &inst).unwrap_err();
        assert!(matches!(err, ModelError::PathError(_)));
    }
}
