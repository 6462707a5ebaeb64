//! Validation of instances against schemas.
//!
//! An instance is valid for a schema iff every object's value conforms to the
//! type its class declares, and every object identity occurring inside any
//! value is present in one of the instance's extents (Section 2.1). Keyed
//! schemas additionally require the key specification to be satisfied.
//!
//! Two walks give one verdict. `conforms` answers yes or no without
//! allocating, and it is what a load runs per object. `check_value` also
//! builds the error — the path to the offending field and what was expected
//! there — and runs only once `conforms` has said no, so a failing
//! instance reports exactly the error it always did.

use crate::error::ModelError;
use crate::instance::Instance;
use crate::keys::KeySpec;
use crate::schema::Schema;
use crate::types::{BaseType, Type};
use crate::values::Value;
use crate::Result;

/// Check that `value` conforms to `ty`.
///
/// Object identities are checked to have the class the type requires and to be
/// present in the instance. `Absent` is only allowed for `Optional` types.
pub(crate) fn check_value(
    value: &Value,
    ty: &Type,
    instance: &Instance,
    context: &str,
) -> Result<()> {
    match (ty, value) {
        (Type::Base(BaseType::Bool), Value::Bool(_)) => Ok(()),
        (Type::Base(BaseType::Int), Value::Int(_)) => Ok(()),
        (Type::Base(BaseType::Real), Value::Real(_)) => Ok(()),
        (Type::Base(BaseType::Str), Value::Str(_)) => Ok(()),
        (Type::Unit, Value::Unit) => Ok(()),
        (Type::Optional(_), Value::Absent) => Ok(()),
        (Type::Optional(inner), v) => check_value(v, inner, instance, context),
        (Type::Class(class), Value::Oid(oid)) => {
            if oid.class() != class {
                return Err(ModelError::TypeMismatch {
                    expected: format!("object of class `{class}`"),
                    found: format!("object of class `{}`", oid.class()),
                    context: context.to_string(),
                });
            }
            if !instance.contains(oid) {
                return Err(ModelError::DanglingOid(format!("{oid} (at {context})")));
            }
            Ok(())
        }
        (Type::Set(elem), Value::Set(items)) => {
            for (i, item) in items.iter().enumerate() {
                check_value(item, elem, instance, &format!("{context}{{{i}}}"))?;
            }
            Ok(())
        }
        (Type::List(elem), Value::List(items)) => {
            for (i, item) in items.iter().enumerate() {
                check_value(item, elem, instance, &format!("{context}[{i}]"))?;
            }
            Ok(())
        }
        (Type::Record(fields), Value::Record(actual)) => {
            for (label, field_ty) in fields {
                match actual.get(label) {
                    Some(v) => {
                        check_value(v, field_ty, instance, &format!("{context}.{label}"))?;
                    }
                    None => {
                        // Missing fields are only allowed when the field is optional.
                        if !matches!(field_ty, Type::Optional(_)) {
                            return Err(ModelError::TypeMismatch {
                                expected: format!("field `{label}`"),
                                found: "missing field".to_string(),
                                context: context.to_string(),
                            });
                        }
                    }
                }
            }
            // Reject fields the type does not declare.
            for label in actual.keys() {
                if !fields.iter().any(|(l, _)| l == label) {
                    return Err(ModelError::TypeMismatch {
                        expected: "no such field".to_string(),
                        found: format!("unexpected field `{label}`"),
                        context: context.to_string(),
                    });
                }
            }
            Ok(())
        }
        (Type::Variant(alts), Value::Variant(label, payload)) => {
            match alts.iter().find(|(l, _)| l == label) {
                Some((_, alt_ty)) => {
                    check_value(payload, alt_ty, instance, &format!("{context}<{label}>"))
                }
                None => Err(ModelError::TypeMismatch {
                    expected: format!(
                        "one of the variant alternatives {:?}",
                        alts.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>()
                    ),
                    found: format!("variant `{label}`"),
                    context: context.to_string(),
                }),
            }
        }
        (expected, found) => Err(ModelError::TypeMismatch {
            expected: format!("{expected:?}"),
            found: found.kind().to_string(),
            context: context.to_string(),
        }),
    }
}

/// True if `value` conforms to `ty`: [`check_value`]'s verdict, reached
/// without formatting a context or an error. A record conforms when every
/// declared field present conforms, every absent one is optional, and the
/// fields found account for all of the record's — for a well-formed type
/// (distinct labels, as [`Schema::validate`] requires), exactly when no
/// field is undeclared.
pub(crate) fn conforms(value: &Value, ty: &Type, instance: &Instance) -> bool {
    match (ty, value) {
        (Type::Base(BaseType::Bool), Value::Bool(_))
        | (Type::Base(BaseType::Int), Value::Int(_))
        | (Type::Base(BaseType::Real), Value::Real(_))
        | (Type::Base(BaseType::Str), Value::Str(_))
        | (Type::Unit, Value::Unit)
        | (Type::Optional(_), Value::Absent) => true,
        (Type::Optional(inner), v) => conforms(v, inner, instance),
        (Type::Class(class), Value::Oid(oid)) => oid.class() == class && instance.contains(oid),
        (Type::Set(elem), Value::Set(items)) => items.iter().all(|v| conforms(v, elem, instance)),
        (Type::List(elem), Value::List(items)) => items.iter().all(|v| conforms(v, elem, instance)),
        (Type::Record(fields), Value::Record(actual)) => {
            let mut found = 0;
            for (label, field_ty) in fields {
                match actual.get(label) {
                    Some(v) if conforms(v, field_ty, instance) => found += 1,
                    Some(_) => return false,
                    None if matches!(field_ty, Type::Optional(_)) => {}
                    None => return false,
                }
            }
            found == actual.len()
        }
        (Type::Variant(alts), Value::Variant(label, payload)) => alts
            .iter()
            .find(|(l, _)| l == label)
            .is_some_and(|(_, alt_ty)| conforms(payload, alt_ty, instance)),
        _ => false,
    }
}

/// Validate a whole instance against a schema.
pub fn check_instance(instance: &Instance, schema: &Schema) -> Result<()> {
    schema.validate()?;
    // Every populated class must be declared.
    for class in instance.populated_classes() {
        if instance.extent_size(&class) > 0 && !schema.has_class(&class) {
            return Err(ModelError::UnknownClass(class));
        }
    }
    // Every object's value must conform to its class's type; a failure is
    // walked again to say where.
    for (class, ty) in schema.classes() {
        for (oid, value) in instance.objects(class) {
            if !conforms(value, ty, instance) {
                check_value(value, ty, instance, &format!("{class}({oid})"))?;
            }
        }
    }
    Ok(())
}

/// Validate an instance against a keyed schema: schema conformance plus key
/// satisfaction (Section 2.2: "an instance of a keyed schema `(S, K)` is an
/// instance of `S` that satisfies `K`").
pub fn check_keyed_instance(instance: &Instance, schema: &Schema, keys: &KeySpec) -> Result<()> {
    check_instance(instance, schema)?;
    keys.check(instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::Oid;
    use crate::types::ClassName;

    fn euro_schema() -> Schema {
        Schema::new("euro")
            .with_class(
                "CityE",
                Type::record([
                    ("name", Type::str()),
                    ("is_capital", Type::bool()),
                    ("country", Type::class("CountryE")),
                ]),
            )
            .with_class(
                "CountryE",
                Type::record([
                    ("name", Type::str()),
                    ("language", Type::str()),
                    ("currency", Type::str()),
                ]),
            )
    }

    fn country(name: &str) -> Value {
        Value::record([
            ("name", Value::str(name)),
            ("language", Value::str("English")),
            ("currency", Value::str("sterling")),
        ])
    }

    #[test]
    fn valid_instance_passes() {
        let schema = euro_schema();
        let mut inst = Instance::new("euro");
        let uk = inst.insert_fresh(&ClassName::new("CountryE"), country("United Kingdom"));
        inst.insert_fresh(
            &ClassName::new("CityE"),
            Value::record([
                ("name", Value::str("London")),
                ("is_capital", Value::bool(true)),
                ("country", Value::oid(uk)),
            ]),
        );
        assert!(check_instance(&inst, &schema).is_ok());
    }

    #[test]
    fn dangling_reference_detected() {
        let schema = euro_schema();
        let mut inst = Instance::new("euro");
        let ghost = Oid::new(ClassName::new("CountryE"), 42);
        inst.insert_fresh(
            &ClassName::new("CityE"),
            Value::record([
                ("name", Value::str("London")),
                ("is_capital", Value::bool(true)),
                ("country", Value::oid(ghost)),
            ]),
        );
        let err = check_instance(&inst, &schema).unwrap_err();
        assert!(matches!(err, ModelError::DanglingOid(_)));
    }

    #[test]
    fn wrong_field_type_detected() {
        let schema = euro_schema();
        let mut inst = Instance::new("euro");
        inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([
                ("name", Value::int(3)),
                ("language", Value::str("English")),
                ("currency", Value::str("sterling")),
            ]),
        );
        assert!(matches!(
            check_instance(&inst, &schema).unwrap_err(),
            ModelError::TypeMismatch { .. }
        ));
    }

    #[test]
    fn missing_required_field_detected() {
        let schema = euro_schema();
        let mut inst = Instance::new("euro");
        inst.insert_fresh(
            &ClassName::new("CountryE"),
            Value::record([("name", Value::str("France"))]),
        );
        assert!(check_instance(&inst, &schema).is_err());
    }

    #[test]
    fn unexpected_field_detected() {
        let schema = euro_schema();
        let mut inst = Instance::new("euro");
        let mut fields = country("France");
        if let Value::Record(ref mut map) = fields {
            map.insert("population".into(), Value::int(67));
        }
        inst.insert_fresh(&ClassName::new("CountryE"), fields);
        assert!(check_instance(&inst, &schema).is_err());
    }

    #[test]
    fn optional_fields_may_be_absent() {
        let schema = Schema::new("s").with_class(
            "Marker",
            Type::record([
                ("name", Type::str()),
                ("position", Type::optional(Type::int())),
            ]),
        );
        let mut inst = Instance::new("s");
        inst.insert_fresh(
            &ClassName::new("Marker"),
            Value::record([("name", Value::str("D22S1")), ("position", Value::Absent)]),
        );
        inst.insert_fresh(
            &ClassName::new("Marker"),
            Value::record([("name", Value::str("D22S2"))]),
        );
        inst.insert_fresh(
            &ClassName::new("Marker"),
            Value::record([("name", Value::str("D22S3")), ("position", Value::int(17))]),
        );
        assert!(check_instance(&inst, &schema).is_ok());
    }

    #[test]
    fn variant_values_checked_against_alternatives() {
        let schema = Schema::new("s")
            .with_class("StateT", Type::record([("name", Type::str())]))
            .with_class("CountryT", Type::record([("name", Type::str())]))
            .with_class(
                "CityT",
                Type::record([
                    ("name", Type::str()),
                    (
                        "place",
                        Type::variant([
                            ("state", Type::class("StateT")),
                            ("country", Type::class("CountryT")),
                        ]),
                    ),
                ]),
            );
        let mut inst = Instance::new("s");
        let pa = inst.insert_fresh(
            &ClassName::new("StateT"),
            Value::record([("name", Value::str("PA"))]),
        );
        inst.insert_fresh(
            &ClassName::new("CityT"),
            Value::record([
                ("name", Value::str("Philadelphia")),
                ("place", Value::variant("state", Value::oid(pa))),
            ]),
        );
        assert!(check_instance(&inst, &schema).is_ok());

        // Wrong alternative label fails.
        let mut bad = Instance::new("s");
        let pa2 = bad.insert_fresh(
            &ClassName::new("StateT"),
            Value::record([("name", Value::str("PA"))]),
        );
        bad.insert_fresh(
            &ClassName::new("CityT"),
            Value::record([
                ("name", Value::str("Philadelphia")),
                ("place", Value::variant("planet", Value::oid(pa2))),
            ]),
        );
        assert!(check_instance(&bad, &schema).is_err());
    }

    #[test]
    fn class_mismatch_in_reference_detected() {
        let schema = euro_schema();
        let mut inst = Instance::new("euro");
        let city = inst.insert_fresh(
            &ClassName::new("CityE"),
            Value::record([
                ("name", Value::str("Lyon")),
                ("is_capital", Value::bool(false)),
                // A city pointing at another city instead of a country.
                ("country", Value::oid(Oid::new(ClassName::new("CityE"), 0))),
            ]),
        );
        let _ = city;
        assert!(check_instance(&inst, &schema).is_err());
    }

    #[test]
    fn populated_undeclared_class_detected() {
        let schema = euro_schema();
        let mut inst = Instance::new("euro");
        inst.insert_fresh(
            &ClassName::new("Mystery"),
            Value::record([("x", Value::int(1))]),
        );
        assert!(matches!(
            check_instance(&inst, &schema).unwrap_err(),
            ModelError::UnknownClass(_)
        ));
    }

    /// One instance per failure shape, each a valid euro instance plus one
    /// bad object: a value that is not a record, a missing field, an extra
    /// field, a reference of the wrong class and a dangling reference.
    fn corrupted_instances() -> Vec<(&'static str, Instance)> {
        let base = || {
            let mut inst = Instance::new("euro");
            let uk = inst.insert_fresh(&ClassName::new("CountryE"), country("United Kingdom"));
            inst.insert_fresh(
                &ClassName::new("CityE"),
                Value::record([
                    ("name", Value::str("London")),
                    ("is_capital", Value::bool(true)),
                    ("country", Value::oid(uk)),
                ]),
            );
            inst
        };
        let city = |country: Oid| {
            Value::record([
                ("name", Value::str("Lyon")),
                ("is_capital", Value::bool(false)),
                ("country", Value::oid(country)),
            ])
        };
        let with = |class: &str, value: Value| {
            let mut inst = base();
            inst.insert_fresh(&ClassName::new(class), value);
            inst
        };
        let mut extra = country("France");
        if let Value::Record(ref mut fields) = extra {
            fields.insert("population".into(), Value::int(67));
        }
        vec![
            ("corrupted", with("CountryE", Value::int(7))),
            (
                "missing",
                with("CountryE", Value::record([("name", Value::str("France"))])),
            ),
            ("extra", with("CountryE", extra)),
            (
                "wrong class",
                with("CityE", city(Oid::new(ClassName::new("CityE"), 0))),
            ),
            (
                "dangling",
                with("CityE", city(Oid::new(ClassName::new("CountryE"), 42))),
            ),
        ]
    }

    #[test]
    fn failing_instances_report_the_errors_they_always_did() {
        let schema = euro_schema();
        let expected = [
            (
                "corrupted",
                "type mismatch at CountryE(#CountryE:1): expected Record([(\"name\", \
                 Base(Str)), (\"language\", Base(Str)), (\"currency\", Base(Str))]), found int",
            ),
            (
                "missing",
                "type mismatch at CountryE(#CountryE:1): expected field `language`, found \
                 missing field",
            ),
            (
                "extra",
                "type mismatch at CountryE(#CountryE:1): expected no such field, found \
                 unexpected field `population`",
            ),
            (
                "wrong class",
                "type mismatch at CityE(#CityE:1).country: expected object of class \
                 `CountryE`, found object of class `CityE`",
            ),
            (
                "dangling",
                "dangling object identity #CountryE:42 (at CityE(#CityE:1).country)",
            ),
        ];
        for ((name, inst), (want_name, message)) in corrupted_instances().iter().zip(expected) {
            assert_eq!(*name, want_name);
            let err = check_instance(inst, &schema).unwrap_err();
            assert_eq!(err.to_string(), message, "{name}");
            // The cheap walk says no to exactly the object the full check
            // reports, and yes to every other.
            for (class, ty) in schema.classes() {
                for (oid, value) in inst.objects(class) {
                    let verdict = check_value(value, ty, inst, &format!("{class}({oid})"));
                    assert_eq!(conforms(value, ty, inst), verdict.is_ok(), "{name}: {oid}");
                }
            }
        }
    }

    #[test]
    fn keyed_instance_check() {
        let schema = euro_schema();
        let keys = KeySpec::new().with_key("CountryE", crate::keys::KeyExpr::path("name"));
        let mut inst = Instance::new("euro");
        inst.insert_fresh(&ClassName::new("CountryE"), country("France"));
        inst.insert_fresh(&ClassName::new("CountryE"), country("France"));
        assert!(check_instance(&inst, &schema).is_ok());
        assert!(check_keyed_instance(&inst, &schema, &keys).is_err());
    }
}
