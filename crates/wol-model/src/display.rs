//! Human-readable rendering of types, values and instances.
//!
//! The renderings follow the paper's notation: record types are written
//! `(a: t, ...)`, variant types `<| a: t, ... |>`, set types `{t}`, and
//! values mirror Example 2.2's `(name -> "London", ...)` style.

use std::fmt::Write as _;

use crate::instance::Instance;
use crate::types::Type;
use crate::values::Value;

/// Render a type in the paper's notation.
pub fn render_type(ty: &Type) -> String {
    let mut out = String::new();
    write_type(&mut out, ty);
    out
}

fn write_type(out: &mut String, ty: &Type) {
    match ty {
        Type::Base(b) => {
            let _ = write!(out, "{b}");
        }
        Type::Class(c) => {
            let _ = write!(out, "{c}");
        }
        Type::Set(t) => {
            out.push('{');
            write_type(out, t);
            out.push('}');
        }
        Type::List(t) => {
            out.push('[');
            write_type(out, t);
            out.push(']');
        }
        Type::Optional(t) => {
            write_type(out, t);
            out.push('?');
        }
        Type::Unit => out.push_str("()"),
        Type::Record(fields) => {
            out.push('(');
            for (i, (l, t)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{l}: ");
                write_type(out, t);
            }
            out.push(')');
        }
        Type::Variant(alts) => {
            out.push_str("<|");
            for (i, (l, t)) in alts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{l}: ");
                write_type(out, t);
            }
            out.push_str("|>");
        }
    }
}

/// Render a value in the paper's notation.
pub fn render_value(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Bool(b) => {
            let _ = write!(out, "{}", if *b { "True" } else { "False" });
        }
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Real(r) => {
            let _ = write!(out, "{r}");
        }
        Value::Str(s) => {
            let _ = write!(out, "{s:?}");
        }
        Value::Oid(o) => {
            let _ = write!(out, "{o}");
        }
        Value::Unit => out.push_str("()"),
        Value::Absent => out.push_str("<absent>"),
        Value::Set(items) => {
            out.push('{');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push('}');
        }
        Value::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Record(fields) => {
            out.push('(');
            for (i, (l, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{l} -> ");
                write_value(out, v);
            }
            out.push(')');
        }
        Value::Variant(label, payload) => {
            let _ = write!(out, "ins_{label}(");
            if **payload != Value::Unit {
                write_value(out, payload);
            }
            out.push(')');
        }
    }
}

/// Render an instance: extents with each object's identity and value.
/// Intended for examples and debugging, not for bulk data.
pub fn render_instance(instance: &Instance) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "instance of {} {{", instance.schema_name());
    for class in instance.populated_classes() {
        let _ = writeln!(out, "  {class} ({} objects):", instance.extent_size(&class));
        for (oid, value) in instance.objects(&class) {
            let _ = writeln!(out, "    {oid} = {}", render_value(value));
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ClassName;

    #[test]
    fn render_types_in_paper_notation() {
        let city_e = Type::record([
            ("name", Type::str()),
            ("is_capital", Type::bool()),
            ("country", Type::class("CountryE")),
        ]);
        assert_eq!(
            render_type(&city_e),
            "(name: str, is_capital: bool, country: CountryE)"
        );
        let place = Type::variant([
            ("state", Type::class("StateT")),
            ("country", Type::class("CountryT")),
        ]);
        assert_eq!(render_type(&place), "<|state: StateT, country: CountryT|>");
        assert_eq!(render_type(&Type::set(Type::class("CityE"))), "{CityE}");
        assert_eq!(render_type(&Type::List(Box::new(Type::int()))), "[int]");
        assert_eq!(render_type(&Type::optional(Type::int())), "int?");
        assert_eq!(render_type(&Type::Unit), "()");
    }

    #[test]
    fn render_values_in_paper_notation() {
        let v = Value::record([
            ("name", Value::str("London")),
            ("is_capital", Value::bool(true)),
        ]);
        assert_eq!(
            render_value(&v),
            r#"(is_capital -> True, name -> "London")"#
        );
        assert_eq!(render_value(&Value::tag("male")), "ins_male()");
        assert_eq!(
            render_value(&Value::variant("euro_city", Value::int(1))),
            "ins_euro_city(1)"
        );
        assert_eq!(
            render_value(&Value::set([Value::int(2), Value::int(1)])),
            "{1, 2}"
        );
        assert_eq!(
            render_value(&Value::list([Value::int(2), Value::int(1)])),
            "[2, 1]"
        );
        assert_eq!(render_value(&Value::Absent), "<absent>");
        assert_eq!(render_value(&Value::real(1.5)), "1.5");
    }

    #[test]
    fn render_instance_lists_objects() {
        let mut inst = Instance::new("us");
        inst.insert_fresh(
            &ClassName::new("StateA"),
            Value::record([("name", Value::str("Pennsylvania"))]),
        );
        let rendered = render_instance(&inst);
        assert!(rendered.contains("instance of us"));
        assert!(rendered.contains("#StateA:0"));
        assert!(rendered.contains("Pennsylvania"));
    }
}
