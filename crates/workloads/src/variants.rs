//! The variant family V(k) (Section 3.2 / 3.3).
//!
//! "If variants are involved, the number of clauses required may be
//! exponential in the number of variants involved. ... it is necessary to be
//! able to split up the specification of the transformation into small parts."
//!
//! `V(k)` has a source class `Src` with `k` boolean flags and a target class
//! `Obj` with `k` variant-typed attributes. The WOL program uses `2k` partial
//! clauses (one per attribute alternative) plus one key constraint; a
//! complete-clause language (Datalog/ILOG — see `wol_oracle::datalog`)
//! needs `2^k` clauses, one per combination of alternatives.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wol_lang::program::{Program, SchemaBinding};
use wol_model::{ClassName, Instance, Schema, Type, Value};

/// The name of the i-th flag attribute of the source class.
pub fn flag_attr(i: usize) -> String {
    format!("flag{i}")
}

/// The name of the i-th variant attribute of the target class.
pub fn variant_attr(i: usize) -> String {
    format!("a{i}")
}

/// The source schema of V(k): `Src(name, flag0, ..., flag{k-1})`.
pub fn source_schema(k: usize) -> Schema {
    let mut fields = vec![("name".to_string(), Type::str())];
    for i in 0..k {
        fields.push((flag_attr(i), Type::bool()));
    }
    Schema::new(format!("variant_source_{k}")).with_class("Src", Type::Record(fields))
}

/// The target schema of V(k): `Obj(name, a0: <|yes|no|>, ..., a{k-1})`.
pub fn target_schema(k: usize) -> Schema {
    let mut fields = vec![("name".to_string(), Type::str())];
    for i in 0..k {
        fields.push((
            variant_attr(i),
            Type::variant([("yes", Type::Unit), ("no", Type::Unit)]),
        ));
    }
    Schema::new(format!("variant_target_{k}")).with_class("Obj", Type::Record(fields))
}

/// The WOL program for V(k): `2k` partial clauses plus the key constraint —
/// linear in `k`.
pub fn wol_program(k: usize) -> Program {
    let mut text = String::new();
    for i in 0..k {
        let flag = flag_attr(i);
        let attr = variant_attr(i);
        text.push_str(&format!(
            "Y{i}: X in Obj, X.name = N, X.{attr} = ins_yes() <= S in Src, S.name = N, S.{flag} = true;\n"
        ));
        text.push_str(&format!(
            "N{i}: X in Obj, X.name = N, X.{attr} = ins_no() <= S in Src, S.name = N, S.{flag} = false;\n"
        ));
    }
    text.push_str("K: X = Mk_Obj(N) <= X in Obj, N = X.name;\n");
    Program::new(
        format!("variants_{k}"),
        vec![SchemaBinding::new(source_schema(k))],
        SchemaBinding::new(target_schema(k)),
    )
    .with_text(&text)
}

/// The number of clauses a complete-clause language needs for V(k): one per
/// combination of alternatives.
pub fn complete_clause_count(k: usize) -> u64 {
    1u64 << k
}

/// Generate a V(k) source instance with `items` objects and pseudo-random
/// flags.
pub fn generate_source(k: usize, items: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = Instance::new(format!("variant_source_{k}"));
    let class = ClassName::new("Src");
    for n in 0..items {
        let mut fields = vec![("name".to_string(), Value::str(format!("item{n}")))];
        for i in 0..k {
            fields.push((flag_attr(i), Value::bool(rng.gen_bool(0.5))));
        }
        inst.insert_fresh(&class, Value::Record(fields.into_iter().collect()));
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_engine::{execute, normalize, NormalizeOptions};

    #[test]
    fn schemas_and_programs_validate_for_small_k() {
        for k in 1..=4 {
            assert!(source_schema(k).validate().is_ok());
            assert!(target_schema(k).validate().is_ok());
            wol_program(k).validate().unwrap();
        }
    }

    #[test]
    fn wol_clause_count_is_linear_and_complete_count_exponential() {
        for k in 1..=6 {
            let program = wol_program(k);
            assert_eq!(program.clauses.len(), 2 * k + 1);
            assert_eq!(complete_clause_count(k), 1 << k);
        }
        assert!(complete_clause_count(8) > 8 * 2 + 1);
    }

    #[test]
    fn transformation_fills_every_variant_attribute() {
        let k = 3;
        let program = wol_program(k);
        let source = generate_source(k, 10, 42);
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let target = execute(&normal, &[&source][..], "target").unwrap();
        assert_eq!(target.extent_size(&ClassName::new("Obj")), 10);
        for (_, value) in target.objects(&ClassName::new("Obj")) {
            for i in 0..k {
                let attr = value.project(&variant_attr(i)).expect("attribute present");
                assert!(
                    matches!(attr, Value::Variant(label, _) if label == "yes" || label == "no")
                );
            }
        }
    }

    #[test]
    fn generated_sources_validate_and_are_deterministic() {
        let k = 4;
        let source = generate_source(k, 20, 7);
        wol_model::validate::check_instance(&source, &source_schema(k)).unwrap();
        assert_eq!(generate_source(k, 20, 7), generate_source(k, 20, 7));
    }
}
