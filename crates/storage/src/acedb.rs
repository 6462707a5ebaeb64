//! An ACeDB-like tagged-tree store.
//!
//! "ACeDB represents data in tree-like structures with object identities, and
//! is well suited for representing 'sparsely populated' data" (Section 6).
//! This module provides a small stand-in: a store of named objects, each a
//! tree of *tags* holding either atomic values, lists of values, or references
//! to other objects. The importer maps a selection of tags onto record
//! attributes of a model [`Instance`], leaving unmentioned tags out and
//! producing `Absent` for missing optional attributes — exactly the
//! sparsely-populated shape the genome workloads exercise.

use std::collections::BTreeMap;

use wol_model::{ClassName, Instance, Label, Record, Value};

use crate::error::StorageError;
use crate::Result;

/// A value held under a tag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AceValue {
    /// A text value.
    Text(String),
    /// An integer value.
    Int(i64),
    /// A reference to another object, by class and name.
    ObjectRef(String, String),
    /// A list of values (ACeDB columns).
    Many(Vec<AceValue>),
}

/// An ACeDB-like object: a class, a name (its identity), and a sparse tree of
/// tagged values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AceObject {
    /// The object's class (ACeDB "class").
    pub class: String,
    /// The object's name (ACeDB objects are identified by name).
    pub name: String,
    /// The tags present on this object.
    pub tags: BTreeMap<String, AceValue>,
}

impl AceObject {
    /// Create an object with no tags.
    pub fn new(class: impl Into<String>, name: impl Into<String>) -> Self {
        AceObject {
            class: class.into(),
            name: name.into(),
            tags: BTreeMap::new(),
        }
    }

    /// Builder-style tag insertion.
    pub fn with_tag(mut self, tag: impl Into<String>, value: AceValue) -> Self {
        self.tags.insert(tag.into(), value);
        self
    }
}

/// A store of ACeDB-like objects.
#[derive(Clone, Debug, Default)]
pub struct AceStore {
    objects: Vec<AceObject>,
}

impl AceStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an object.
    pub fn add(&mut self, object: AceObject) {
        self.objects.push(object);
    }

    /// All objects of a class.
    pub fn of_class(&self, class: &str) -> Vec<&AceObject> {
        self.objects.iter().filter(|o| o.class == class).collect()
    }

    /// Total number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Import the store into a model instance.
    ///
    /// `mappings` lists, per ACeDB class, the target model class and the tags
    /// to import as attributes (tag name → attribute label). The object's name
    /// always becomes the `name` attribute. Tags missing on an object simply
    /// do not produce an attribute (sparse data); `ObjectRef` tags resolve to
    /// object identities of the referenced class, failing if the referenced
    /// object is not part of the import.
    pub fn import(&self, mappings: &[AceMapping], instance_name: &str) -> Result<Instance> {
        let mut instance = Instance::new(instance_name);
        // Pass 1: create every object so references can be resolved.
        let mut oids: BTreeMap<(String, String), wol_model::Oid> = BTreeMap::new();
        for mapping in mappings {
            let class = ClassName::new(&mapping.model_class);
            for object in self.of_class(&mapping.ace_class) {
                let oid = instance.insert_fresh(&class, Value::Record(Record::new()));
                oids.insert((object.class.clone(), object.name.clone()), oid);
            }
        }
        // Pass 2: fill in attribute records (labels resolved once: the
        // mapping's are interned already).
        let name = Label::new("name");
        for mapping in mappings {
            for object in self.of_class(&mapping.ace_class) {
                let oid = oids[&(object.class.clone(), object.name.clone())].clone();
                let mut fields = vec![(name.clone(), Value::str(&object.name))];
                for (tag, label) in &mapping.tags {
                    if let Some(value) = object.tags.get(tag) {
                        fields.push((label.clone(), convert(value, &oids)?));
                    }
                }
                instance.update(&oid, Value::Record(fields.into_iter().collect()))?;
            }
        }
        Ok(instance)
    }
}

fn convert(value: &AceValue, oids: &BTreeMap<(String, String), wol_model::Oid>) -> Result<Value> {
    Ok(match value {
        AceValue::Text(s) => Value::str(s.clone()),
        AceValue::Int(i) => Value::Int(*i),
        AceValue::ObjectRef(class, name) => {
            let oid = oids.get(&(class.clone(), name.clone())).ok_or_else(|| {
                StorageError::UnresolvedReference(format!(
                    "{class}:{name} is not part of the import"
                ))
            })?;
            Value::Oid(oid.clone())
        }
        AceValue::Many(items) => Value::Set(
            items
                .iter()
                .map(|i| convert(i, oids))
                .collect::<Result<std::collections::BTreeSet<Value>>>()?,
        ),
    })
}

/// How one ACeDB class maps onto a model class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AceMapping {
    /// The ACeDB class to import.
    pub ace_class: String,
    /// The model class to create objects in.
    pub model_class: String,
    /// Tag → attribute label pairs to import.
    pub tags: Vec<(String, Label)>,
}

impl AceMapping {
    /// Convenience constructor.
    pub fn new(
        ace_class: impl Into<String>,
        model_class: impl Into<String>,
        tags: &[(&str, &str)],
    ) -> Self {
        AceMapping {
            ace_class: ace_class.into(),
            model_class: model_class.into(),
            tags: tags
                .iter()
                .map(|(t, l)| (t.to_string(), Label::new(l)))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn genome_store() -> AceStore {
        let mut store = AceStore::new();
        store.add(
            AceObject::new("Clone", "cE22-1")
                .with_tag("Length", AceValue::Int(40_000))
                .with_tag("Sequenced_by", AceValue::Text("Sanger".to_string())),
        );
        // A sparsely populated clone: no length recorded.
        store.add(AceObject::new("Clone", "cE22-2"));
        store.add(
            AceObject::new("Marker", "D22S1")
                .with_tag("Position", AceValue::Int(17))
                .with_tag(
                    "Clone",
                    AceValue::ObjectRef("Clone".to_string(), "cE22-1".to_string()),
                )
                .with_tag(
                    "Aliases",
                    AceValue::Many(vec![
                        AceValue::Text("M1".to_string()),
                        AceValue::Text("M1b".to_string()),
                    ]),
                ),
        );
        store
    }

    fn mappings() -> Vec<AceMapping> {
        vec![
            AceMapping::new(
                "Clone",
                "CloneS",
                &[("Length", "length"), ("Sequenced_by", "lab")],
            ),
            AceMapping::new(
                "Marker",
                "MarkerS",
                &[
                    ("Position", "position"),
                    ("Clone", "clone"),
                    ("Aliases", "aliases"),
                ],
            ),
        ]
    }

    #[test]
    fn import_creates_sparse_records() {
        let store = genome_store();
        assert_eq!(store.len(), 3);
        assert!(!store.is_empty());
        let instance = store.import(&mappings(), "ace22").unwrap();
        assert_eq!(instance.extent_size(&ClassName::new("CloneS")), 2);
        assert_eq!(instance.extent_size(&ClassName::new("MarkerS")), 1);

        let full = instance
            .find_by_field(&ClassName::new("CloneS"), "name", &Value::str("cE22-1"))
            .unwrap();
        assert_eq!(
            instance.value(full).unwrap().project("length"),
            Some(&Value::int(40_000))
        );

        // The sparse clone has a name but no length attribute at all.
        let sparse = instance
            .find_by_field(&ClassName::new("CloneS"), "name", &Value::str("cE22-2"))
            .unwrap();
        assert_eq!(instance.value(sparse).unwrap().project("length"), None);
    }

    #[test]
    fn references_and_sets_resolved() {
        let instance = genome_store().import(&mappings(), "ace22").unwrap();
        let marker = instance
            .find_by_field(&ClassName::new("MarkerS"), "name", &Value::str("D22S1"))
            .unwrap();
        let value = instance.value(marker).unwrap();
        let clone_oid = value.project("clone").and_then(|v| v.as_oid()).unwrap();
        assert_eq!(
            instance.value(clone_oid).unwrap().project("name"),
            Some(&Value::str("cE22-1"))
        );
        let aliases = value.project("aliases").and_then(|v| v.as_set()).unwrap();
        assert_eq!(aliases.len(), 2);
    }

    #[test]
    fn unresolved_reference_reported() {
        let mut store = AceStore::new();
        store.add(AceObject::new("Marker", "D22S9").with_tag(
            "Clone",
            AceValue::ObjectRef("Clone".to_string(), "ghost".to_string()),
        ));
        let err = store
            .import(
                &[AceMapping::new("Marker", "MarkerS", &[("Clone", "clone")])],
                "x",
            )
            .unwrap_err();
        assert!(matches!(err, StorageError::UnresolvedReference(_)));
    }

    #[test]
    fn unmapped_classes_are_ignored() {
        let store = genome_store();
        let instance = store
            .import(
                &[AceMapping::new("Clone", "CloneS", &[("Length", "length")])],
                "x",
            )
            .unwrap();
        assert_eq!(instance.extent_size(&ClassName::new("MarkerS")), 0);
        assert_eq!(instance.extent_size(&ClassName::new("CloneS")), 2);
    }
}
