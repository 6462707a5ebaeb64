//! Database schemas.
//!
//! A schema consists of a finite set of classes and, for each class, the type
//! of the values associated with objects of that class (Section 2.1). The type
//! of a class must not itself be a class type; class types may only appear
//! nested within it.

use std::collections::BTreeMap;

use crate::error::ModelError;
use crate::types::{ClassName, Type};
use crate::Result;

/// A database schema: a named, finite set of classes with their value types.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    name: String,
    classes: BTreeMap<ClassName, Type>,
}

impl Schema {
    /// Create an empty schema with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Schema {
            name: name.into(),
            classes: BTreeMap::new(),
        }
    }

    /// The schema's name (e.g. `"european_cities"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a class with its associated value type.
    ///
    /// Returns an error if the class is already declared.
    pub fn add_class(&mut self, class: impl Into<ClassName>, ty: Type) -> Result<()> {
        let class = class.into();
        if self.classes.contains_key(&class) {
            return Err(ModelError::DuplicateClass(class));
        }
        self.classes.insert(class, ty);
        Ok(())
    }

    /// Builder-style variant of [`add_class`](Self::add_class), convenient
    /// for statically known schemas in tests and workload generators; a
    /// schema built from outside input goes through the fallible
    /// [`add_class`](Self::add_class).
    ///
    /// # Panics
    ///
    /// If `class` is already declared.
    // The one stated panic of this crate: a duplicate here is a bug in the
    // schema written into the calling code, not bad input.
    #[allow(clippy::expect_used)]
    pub fn with_class(mut self, class: impl Into<ClassName>, ty: Type) -> Self {
        self.add_class(class, ty)
            .expect("duplicate class in schema builder");
        self
    }

    /// The type associated with `class`, if declared.
    pub fn class_type(&self, class: &ClassName) -> Option<&Type> {
        self.classes.get(class)
    }

    /// Whether `class` is declared in this schema.
    pub fn has_class(&self, class: &ClassName) -> bool {
        self.classes.contains_key(class)
    }

    /// Iterate over `(class, type)` pairs in a deterministic order.
    pub fn classes(&self) -> impl Iterator<Item = (&ClassName, &Type)> {
        self.classes.iter()
    }

    /// The class names declared in this schema, in a deterministic order.
    pub fn class_names(&self) -> Vec<ClassName> {
        self.classes.keys().cloned().collect()
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True if the schema declares no classes.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Validate the schema:
    ///
    /// * no class's value type is directly a class type,
    /// * every class type referenced inside a value type is declared,
    /// * record and variant labels are distinct.
    pub fn validate(&self) -> Result<()> {
        for (class, ty) in &self.classes {
            if ty.is_class() {
                return Err(ModelError::ClassTypedClass(class.clone()));
            }
            ty.check_well_formed(class.as_str())?;
            for referenced in ty.referenced_classes() {
                if !self.classes.contains_key(&referenced) {
                    return Err(ModelError::UnknownClass(referenced));
                }
            }
        }
        Ok(())
    }

    /// The class-reference graph: for each class, which classes its value type
    /// refers to. Used for recursion analysis of schemas and transformation
    /// programs.
    pub fn reference_graph(&self) -> BTreeMap<ClassName, Vec<ClassName>> {
        self.classes
            .iter()
            .map(|(c, t)| (c.clone(), t.referenced_classes()))
            .collect()
    }

    /// Whether the schema's reference graph contains a cycle (recursive data
    /// structures such as the Cities/States schema of Figure 1).
    pub fn is_recursive(&self) -> bool {
        let graph = self.reference_graph();
        // Depth-first search with colouring.
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour: BTreeMap<&ClassName, Colour> =
            graph.keys().map(|c| (c, Colour::White)).collect();

        fn visit<'a>(
            node: &'a ClassName,
            graph: &'a BTreeMap<ClassName, Vec<ClassName>>,
            colour: &mut BTreeMap<&'a ClassName, Colour>,
        ) -> bool {
            colour.insert(node, Colour::Grey);
            if let Some(succs) = graph.get(node) {
                for succ in succs {
                    match colour.get(succ).copied() {
                        Some(Colour::Grey) => return true,
                        Some(Colour::White) if visit(succ, graph, colour) => {
                            return true;
                        }
                        _ => {}
                    }
                }
            }
            colour.insert(node, Colour::Black);
            false
        }

        let nodes: Vec<&ClassName> = graph.keys().collect();
        for node in nodes {
            if colour[node] == Colour::White && visit(node, &graph, &mut colour) {
                return true;
            }
        }
        false
    }

    /// Merge another schema into this one (used to treat several source
    /// databases as one combined source, as WOL transformations may draw from
    /// multiple sources). Class names must be disjoint.
    pub fn merge(&mut self, other: &Schema) -> Result<()> {
        for (class, ty) in other.classes() {
            self.add_class(class.clone(), ty.clone())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The US Cities and States schema of Figure 1.
    fn us_schema() -> Schema {
        Schema::new("us")
            .with_class(
                "CityA",
                Type::record([("name", Type::str()), ("state", Type::class("StateA"))]),
            )
            .with_class(
                "StateA",
                Type::record([("name", Type::str()), ("capital", Type::class("CityA"))]),
            )
    }

    #[test]
    fn build_and_lookup() {
        let s = us_schema();
        assert_eq!(s.name(), "us");
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(s.has_class(&ClassName::new("CityA")));
        assert!(!s.has_class(&ClassName::new("CityE")));
        let city = s.class_type(&ClassName::new("CityA")).unwrap();
        assert_eq!(city.field("name"), Some(&Type::str()));
        assert_eq!(s.class_names().len(), 2);
    }

    #[test]
    fn duplicate_class_rejected() {
        let mut s = us_schema();
        let err = s
            .add_class("CityA", Type::record([("x", Type::int())]))
            .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateClass(_)));
    }

    #[test]
    fn validation_accepts_figure_1() {
        assert!(us_schema().validate().is_ok());
    }

    #[test]
    fn validation_rejects_unknown_reference() {
        let s = Schema::new("bad")
            .with_class("City", Type::record([("state", Type::class("Nowhere"))]));
        let err = s.validate().unwrap_err();
        assert_eq!(err, ModelError::UnknownClass(ClassName::new("Nowhere")));
    }

    #[test]
    fn validation_rejects_class_typed_class() {
        let s = Schema::new("bad")
            .with_class("A", Type::record([("x", Type::int())]))
            .with_class("B", Type::class("A"));
        let err = s.validate().unwrap_err();
        assert_eq!(err, ModelError::ClassTypedClass(ClassName::new("B")));
    }

    #[test]
    fn figure_1_is_recursive() {
        assert!(us_schema().is_recursive());
    }

    #[test]
    fn acyclic_schema_detected() {
        let s = Schema::new("flat")
            .with_class("Country", Type::record([("name", Type::str())]))
            .with_class(
                "City",
                Type::record([("name", Type::str()), ("country", Type::class("Country"))]),
            );
        assert!(!s.is_recursive());
    }

    #[test]
    fn merge_disjoint_schemas() {
        let mut s = us_schema();
        let e = Schema::new("euro").with_class(
            "CityE",
            Type::record([("name", Type::str()), ("is_capital", Type::bool())]),
        );
        s.merge(&e).unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.has_class(&ClassName::new("CityE")));
    }

    #[test]
    fn merge_overlapping_schemas_fails() {
        let mut s = us_schema();
        let dup = Schema::new("dup").with_class("CityA", Type::record([("x", Type::int())]));
        assert!(s.merge(&dup).is_err());
    }

    #[test]
    fn reference_graph_contents() {
        let g = us_schema().reference_graph();
        assert_eq!(g[&ClassName::new("CityA")], vec![ClassName::new("StateA")]);
        assert_eq!(g[&ClassName::new("StateA")], vec![ClassName::new("CityA")]);
    }
}
