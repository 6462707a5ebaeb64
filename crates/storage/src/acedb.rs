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

use wol_model::{ClassName, Instance, Label, Value};

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
                let oid = instance.insert_fresh(&class, Value::Record(BTreeMap::new()));
                oids.insert((object.class.clone(), object.name.clone()), oid);
            }
        }
        // Pass 2: fill in attribute records.
        for mapping in mappings {
            for object in self.of_class(&mapping.ace_class) {
                let oid = oids[&(object.class.clone(), object.name.clone())].clone();
                let mut fields: BTreeMap<Label, Value> = BTreeMap::new();
                fields.insert("name".to_string(), Value::str(&object.name));
                for (tag, label) in &mapping.tags {
                    if let Some(value) = object.tags.get(tag) {
                        fields.insert(label.clone(), convert(value, &oids)?);
                    }
                }
                instance.update(&oid, Value::Record(fields))?;
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

/// Parse `.ace`-style text into an [`AceStore`], attributing errors to
/// `source` (a file path or pseudo-path).
///
/// The accepted format is a simplification of ACeDB's dump format:
///
/// ```text
/// Clone : "cE22-1"
/// Length 40000
/// Sequenced_by "Sanger"
///
/// Marker : "D22S1"
/// Clone Clone:"cE22-1"
/// Aliases "M1" "M1b"
/// ```
///
/// An object starts with a `Class : "Name"` header; the following lines each
/// hold a tag with one or more values (quoted text, integers, or
/// `Class:"name"` object references; multiple values become
/// [`AceValue::Many`]). A blank line ends the object. Malformed or truncated
/// input — an unterminated quote, a tag before any header, a header without a
/// name — is reported as [`StorageError::Corrupt`] with the 1-based line
/// number and expected-vs-found context; short input never panics.
pub fn parse_ace(source: &str, text: &str) -> Result<AceStore> {
    let mut store = AceStore::new();
    let mut current: Option<AceObject> = None;
    for (line_no, raw) in text.lines().enumerate() {
        let line_no = line_no + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with("//") {
            if let Some(object) = current.take() {
                store.add(object);
            }
            continue;
        }
        if let Some((class, rest)) = line.split_once(':') {
            let class = class.trim();
            // A header's class is a bare word; `Tag Class:"name"` lines also
            // contain a colon but their first token has a value after it.
            if !class.contains(char::is_whitespace) && !class.is_empty() {
                let name = rest.trim();
                let name = name
                    .strip_prefix('"')
                    .and_then(|n| n.strip_suffix('"'))
                    .ok_or_else(|| {
                        StorageError::corrupt_at_line(
                            source,
                            line_no,
                            "a quoted object name after `:`",
                            format!("`{name}`"),
                        )
                    })?;
                if let Some(object) = current.take() {
                    store.add(object);
                }
                current = Some(AceObject::new(class, name));
                continue;
            }
        }
        // A tag line: `Tag value...`.
        let Some(object) = current.as_mut() else {
            return Err(StorageError::corrupt_at_line(
                source,
                line_no,
                "an object header `Class : \"Name\"`",
                format!("tag line `{line}`"),
            ));
        };
        let (tag, rest) = match line.split_once(char::is_whitespace) {
            Some((tag, rest)) => (tag, rest.trim()),
            None => (line, ""),
        };
        let values = parse_ace_values(source, line_no, rest)?;
        let value = match <[AceValue; 1]>::try_from(values) {
            Ok([single]) => single,
            Err(values) if values.is_empty() => {
                return Err(StorageError::corrupt_at_line(
                    source,
                    line_no,
                    format!("a value after tag `{tag}`"),
                    "end of line",
                ));
            }
            Err(values) => AceValue::Many(values),
        };
        object.tags.insert(tag.to_string(), value);
    }
    if let Some(object) = current.take() {
        store.add(object);
    }
    Ok(store)
}

/// Read and parse an `.ace` file (see [`parse_ace`]); I/O and parse errors
/// both carry the file path.
pub fn load_ace_file(path: &std::path::Path) -> Result<AceStore> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| StorageError::io(path.display().to_string(), e))?;
    parse_ace(&path.display().to_string(), &text)
}

/// Tokenize the value part of a tag line: quoted strings, integers, and
/// `Class:"name"` object references.
fn parse_ace_values(source: &str, line_no: usize, rest: &str) -> Result<Vec<AceValue>> {
    let mut values = Vec::new();
    let mut chars = rest.char_indices().peekable();
    while let Some(&(start, c)) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
            continue;
        }
        if c == '"' {
            chars.next();
            let mut text = String::new();
            let mut closed = false;
            for (_, c) in chars.by_ref() {
                if c == '"' {
                    closed = true;
                    break;
                }
                text.push(c);
            }
            if !closed {
                return Err(StorageError::corrupt_at_line(
                    source,
                    line_no,
                    "a closing `\"`",
                    "end of line",
                ));
            }
            values.push(AceValue::Text(text));
            continue;
        }
        // A bare token runs to the next whitespace; `Class:"name"` keeps the
        // quoted part attached.
        let mut end = rest.len();
        let mut in_quotes = false;
        for (i, c) in rest[start..].char_indices() {
            match c {
                '"' => in_quotes = !in_quotes,
                c if c.is_whitespace() && !in_quotes => {
                    end = start + i;
                    break;
                }
                _ => {}
            }
        }
        if in_quotes {
            return Err(StorageError::corrupt_at_line(
                source,
                line_no,
                "a closing `\"`",
                "end of line",
            ));
        }
        let token = &rest[start..end];
        while chars.peek().is_some_and(|&(i, _)| i < end) {
            chars.next();
        }
        if let Some((class, name)) = token.split_once(':') {
            let name = name
                .strip_prefix('"')
                .and_then(|n| n.strip_suffix('"'))
                .ok_or_else(|| {
                    StorageError::corrupt_at_line(
                        source,
                        line_no,
                        "an object reference `Class:\"name\"`",
                        format!("`{token}`"),
                    )
                })?;
            values.push(AceValue::ObjectRef(class.to_string(), name.to_string()));
        } else if let Ok(i) = token.parse::<i64>() {
            values.push(AceValue::Int(i));
        } else {
            return Err(StorageError::corrupt_at_line(
                source,
                line_no,
                "a quoted string, integer, or `Class:\"name\"` reference",
                format!("`{token}`"),
            ));
        }
    }
    Ok(values)
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
                .map(|(t, l)| (t.to_string(), l.to_string()))
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
    fn parse_ace_round_trips_the_genome_store_shape() {
        let text = r#"
Clone : "cE22-1"
Length 40000
Sequenced_by "Sanger"

Clone : "cE22-2"

Marker : "D22S1"
Position 17
Clone Clone:"cE22-1"
Aliases "M1" "M1b"
"#;
        let store = parse_ace("genome.ace", text).unwrap();
        assert_eq!(store.len(), 3);
        let clones = store.of_class("Clone");
        assert_eq!(clones.len(), 2);
        assert_eq!(clones[0].tags.get("Length"), Some(&AceValue::Int(40_000)));
        assert!(clones[1].tags.is_empty());
        let marker = store.of_class("Marker")[0];
        assert_eq!(
            marker.tags.get("Clone"),
            Some(&AceValue::ObjectRef(
                "Clone".to_string(),
                "cE22-1".to_string()
            ))
        );
        assert_eq!(
            marker.tags.get("Aliases"),
            Some(&AceValue::Many(vec![
                AceValue::Text("M1".to_string()),
                AceValue::Text("M1b".to_string()),
            ]))
        );
        // The parsed store imports exactly like the hand-built one.
        let instance = store.import(&mappings(), "ace22").unwrap();
        let reference = genome_store().import(&mappings(), "ace22").unwrap();
        assert_eq!(instance.deep_eq_report(&reference), None);
    }

    /// Truncated `.ace` input — cut mid-quote, as a partial download or crash
    /// during a dump would leave it — reports the line and what was expected,
    /// and never panics.
    #[test]
    fn truncated_ace_input_reports_position_context() {
        let err = parse_ace("genome.ace", "Clone : \"cE22-1\"\nSequenced_by \"San").unwrap_err();
        assert_eq!(
            err,
            StorageError::corrupt_at_line("genome.ace", 2, "a closing `\"`", "end of line")
        );
        // A header whose name is cut off.
        let err = parse_ace("genome.ace", "Clone : \"cE22").unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt { line: Some(1), .. }),
            "{err}"
        );
        // A tag with its value truncated away.
        let err = parse_ace("genome.ace", "Clone : \"c1\"\nLength").unwrap_err();
        assert!(
            err.to_string().contains("a value after tag `Length`"),
            "{err}"
        );
        // A tag line with no preceding object header.
        let err = parse_ace("genome.ace", "Length 40000").unwrap_err();
        assert!(err.to_string().contains("object header"), "{err}");
    }

    #[test]
    fn load_ace_file_attributes_errors_to_the_path() {
        let dir = std::env::temp_dir().join(format!("wol-ace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("genome.ace");
        std::fs::write(&path, "Clone : \"c1\"\nLength 40000\n").unwrap();
        let store = load_ace_file(&path).unwrap();
        assert_eq!(store.len(), 1);
        let err = load_ace_file(&dir.join("absent.ace")).unwrap_err();
        assert!(matches!(err, StorageError::Io { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
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
