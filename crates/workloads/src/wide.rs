//! The wide-record family W(n, k): the knob behind the compile-time
//! experiments E1 and E2.
//!
//! The paper's genome schemas have records with "tens of fields", and target
//! objects are described piecemeal by several partial clauses. `W(n, k)` is a
//! synthetic version of that: a source class `Wide` and a target class `Tgt`
//! with `n` data attributes each; the transformation is written either as one
//! already-normal-form clause per class, or split into `k` partial clauses
//! (each defining a contiguous chunk of the attributes), with or without the
//! key constraint that lets the normaliser merge them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wol_lang::program::{Program, SchemaBinding};
use wol_model::{ClassName, Instance, Schema, Type, Value};

/// The name of the i-th data attribute.
pub(crate) fn attr(i: usize) -> String {
    format!("f{i}")
}

/// The source schema: `Wide(name, f0, ..., f{n-1})`.
pub(crate) fn source_schema(n: usize) -> Schema {
    let mut fields = vec![("name".to_string(), Type::str())];
    for i in 0..n {
        fields.push((attr(i), Type::str()));
    }
    Schema::new(format!("wide_source_{n}")).with_class("Wide", Type::record(fields))
}

/// The target schema: `Tgt(name, f0, ..., f{n-1})` with every data attribute
/// optional (partial clauses need not cover all of them).
pub(crate) fn target_schema(n: usize) -> Schema {
    let mut fields = vec![("name".to_string(), Type::str())];
    for i in 0..n {
        fields.push((attr(i), Type::optional(Type::str())));
    }
    Schema::new(format!("wide_target_{n}")).with_class("Tgt", Type::record(fields))
}

fn key_constraint_text() -> &'static str {
    "K: X = Mk_Tgt(N) <= X in Tgt, N = X.name;\n"
}

/// A program consisting of a single already-normal-form clause copying all `n`
/// attributes, plus the key constraint. This is the "already in normal form"
/// program the paper uses as its compile-time baseline (Section 6).
pub fn normal_form_program(n: usize) -> Program {
    let mut head = String::from("T: X in Tgt, X.name = N");
    let mut body = String::from(" <= S in Wide, S.name = N");
    for i in 0..n {
        head.push_str(&format!(", X.{} = V{i}", attr(i)));
        body.push_str(&format!(", S.{} = V{i}", attr(i)));
    }
    let text = format!("{head}{body};\n{}", key_constraint_text());
    Program::new(
        format!("wide_normal_{n}"),
        vec![SchemaBinding::new(source_schema(n))],
        SchemaBinding::new(target_schema(n)),
    )
    .with_text(&text)
}

/// A program that splits the description of `Tgt` over `k` partial clauses
/// (each covering a contiguous chunk of the `n` attributes), optionally with
/// the key constraint. Without the key constraint the normaliser must consider
/// every combination of the partial clauses — the exponential case of the
/// paper's evaluation.
pub fn partial_program(n: usize, k: usize, with_key: bool) -> Program {
    assert!(k >= 1, "at least one partial clause is required");
    let mut text = String::new();
    let chunk = n.div_ceil(k.max(1));
    for j in 0..k {
        let lo = j * chunk;
        let hi = ((j + 1) * chunk).min(n);
        let mut head = format!("P{j}: X in Tgt, X.name = N");
        let mut body = String::from(" <= S in Wide, S.name = N");
        for i in lo..hi {
            head.push_str(&format!(", X.{} = V{i}", attr(i)));
            body.push_str(&format!(", S.{} = V{i}", attr(i)));
        }
        text.push_str(&format!("{head}{body};\n"));
    }
    if with_key {
        text.push_str(key_constraint_text());
    }
    Program::new(
        format!("wide_partial_{n}_{k}_{with_key}"),
        vec![SchemaBinding::new(source_schema(n))],
        SchemaBinding::new(target_schema(n)),
    )
    .with_text(&text)
}

/// Generate a `Wide` source instance with `rows` objects.
pub fn generate_source(n: usize, rows: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = Instance::new(format!("wide_source_{n}"));
    let class = ClassName::new("Wide");
    for r in 0..rows {
        let mut fields = vec![("name".to_string(), Value::str(format!("row{r}")))];
        for i in 0..n {
            fields.push((
                attr(i),
                Value::str(format!("v{}_{}", i, rng.gen_range(0..1000))),
            ));
        }
        inst.insert_fresh(&class, Value::Record(fields.into_iter().collect()));
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_engine::{naive_transform, normalize, NormalizeOptions};

    #[test]
    fn programs_validate() {
        normal_form_program(6).validate().unwrap();
        partial_program(6, 3, true).validate().unwrap();
        partial_program(6, 3, false).validate().unwrap();
    }

    #[test]
    fn partial_and_normal_form_programs_compute_the_same_target() {
        let n = 8;
        let source = generate_source(n, 5, 3);
        let a = naive_transform(&normal_form_program(n), &[&source][..], "t").unwrap();
        let b = naive_transform(&partial_program(n, 4, true), &[&source][..], "t").unwrap();
        assert!(wol_engine::instances_equivalent(&a, &b, 2));
        assert_eq!(a.extent_size(&ClassName::new("Tgt")), 5);
    }

    #[test]
    fn without_keys_the_normal_form_is_exponential_in_k() {
        let n = 8;
        let with_keys =
            normalize(&partial_program(n, 4, true), &NormalizeOptions::default()).unwrap();
        let without_keys = normalize(
            &partial_program(n, 4, false),
            &NormalizeOptions {
                use_target_keys: false,
                ..NormalizeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(with_keys.len(), 4);
        assert_eq!(without_keys.len(), (1 << 4) - 1);
        assert!(without_keys.size() > with_keys.size());
    }

    #[test]
    fn already_normal_form_programs_normalise_to_one_clause() {
        let normal = normalize(&normal_form_program(10), &NormalizeOptions::default()).unwrap();
        assert_eq!(normal.len(), 1);
        assert_eq!(normal.clauses[0].attrs.len(), 11);
    }

    #[test]
    fn chunking_covers_all_attributes() {
        let n = 10;
        let k = 3;
        let normal = normalize(&partial_program(n, k, true), &NormalizeOptions::default()).unwrap();
        let mut covered: std::collections::BTreeSet<String> = Default::default();
        for clause in &normal.clauses {
            covered.extend(clause.attrs.keys().map(|l| l.to_string()));
        }
        for i in 0..n {
            assert!(
                covered.contains(&attr(i)),
                "attribute {} not covered",
                attr(i)
            );
        }
    }

    #[test]
    fn generated_sources_validate() {
        let n = 6;
        let source = generate_source(n, 4, 9);
        wol_model::validate::check_instance(&source, &source_schema(n)).unwrap();
    }
}
