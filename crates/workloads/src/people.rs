//! The Person/Marriage schema-evolution workload of Figures 4–5 (Example 4.2).
//!
//! The source schema has a single `Person` class with a `sex` variant and a
//! `spouse` attribute; the evolved schema splits it into `Male`, `Female` and
//! `Marriage`. The transformation (T6)–(T8) is information preserving only on
//! instances satisfying the spouse constraints (C9)–(C11).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wol_lang::program::{Program, SchemaBinding};
use wol_model::{ClassName, Instance, KeyExpr, KeySpec, Oid, Schema, Type, Value};

/// The schema-evolution workload.
#[derive(Clone, Debug)]
pub struct PeopleWorkload {
    /// The pre-evolution schema of Figure 4.
    pub source_schema: Schema,
    /// The post-evolution schema of Figure 5.
    pub target_schema: Schema,
    /// Keys for the target classes.
    pub target_keys: KeySpec,
}

impl Default for PeopleWorkload {
    fn default() -> Self {
        Self::new()
    }
}

impl PeopleWorkload {
    /// Build the workload.
    pub fn new() -> Self {
        let source_schema = Schema::new("people_v1").with_class(
            "Person",
            Type::record([
                ("name", Type::str()),
                (
                    "sex",
                    Type::variant([("male", Type::Unit), ("female", Type::Unit)]),
                ),
                ("spouse", Type::class("Person")),
            ]),
        );
        let target_schema = Schema::new("people_v2")
            .with_class("Male", Type::record([("name", Type::str())]))
            .with_class("Female", Type::record([("name", Type::str())]))
            .with_class(
                "Marriage",
                Type::record([
                    ("husband", Type::class("Male")),
                    ("wife", Type::class("Female")),
                ]),
            );
        let target_keys = KeySpec::new()
            .with_key("Male", KeyExpr::path("name"))
            .with_key("Female", KeyExpr::path("name"))
            .with_key(
                "Marriage",
                KeyExpr::record([
                    ("husband", KeyExpr::path("husband.name")),
                    ("wife", KeyExpr::path("wife.name")),
                ]),
            );
        PeopleWorkload {
            source_schema,
            target_schema,
            target_keys,
        }
    }

    /// The transformation clauses (T6)–(T8) and the key constraints needed to
    /// normalise them.
    pub fn program_text() -> &'static str {
        "T6: X in Male, X.name = N <= Y in Person, Y.name = N, Y.sex = ins_male();\n\
         T7: X in Female, X.name = N <= Y in Person, Y.name = N, Y.sex = ins_female();\n\
         T8: M in Marriage, M.husband = X, M.wife = Y \
             <= X in Male, Y in Female, Z in Person, W in Person, \
                X.name = Z.name, Y.name = W.name, W = Z.spouse, \
                Z.sex = ins_male(), W.sex = ins_female();\n\
         K1: X = Mk_Male(N) <= X in Male, N = X.name;\n\
         K2: X = Mk_Female(N) <= X in Female, N = X.name;\n\
         K3: M = Mk_Marriage(husband = H, wife = W) <= M in Marriage, H = M.husband, W = M.wife;"
    }

    /// The spouse constraints (C9)–(C11) of Example 4.2.
    pub fn constraints_text() -> &'static str {
        "C9: X.sex = ins_male() <= Y in Person, Y.sex = ins_female(), X = Y.spouse;\n\
         C10: Y.sex = ins_female() <= X in Person, X.sex = ins_male(), Y = X.spouse;\n\
         C11: Y = X.spouse <= Y in Person, X = Y.spouse;"
    }

    /// The transformation program from the old schema to the new one.
    pub fn program(&self) -> Program {
        Program::new(
            "people_evolution",
            vec![SchemaBinding::new(self.source_schema.clone())],
            SchemaBinding::keyed(self.target_schema.clone(), self.target_keys.clone()),
        )
        .with_text(Self::program_text())
    }

    /// The parsed constraint clauses.
    pub fn constraints(&self) -> Vec<wol_lang::Clause> {
        wol_lang::parse_program(Self::constraints_text()).expect("constraints parse")
    }
}

/// Generate a constraint-satisfying instance with `couples` married couples
/// (spouse attributes symmetric, husband male, wife female).
pub fn generate_couples(couples: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = Instance::new("people_v1");
    let class = ClassName::new("Person");
    for i in 0..couples {
        let suffix: u32 = rng.gen_range(0..10_000);
        let h = Oid::new(class.clone(), (i * 2) as u64);
        let w = Oid::new(class.clone(), (i * 2 + 1) as u64);
        inst.insert(
            h.clone(),
            Value::record([
                ("name", Value::str(format!("Husband{i}_{suffix}"))),
                ("sex", Value::tag("male")),
                ("spouse", Value::oid(w.clone())),
            ]),
        )
        .expect("fresh identity");
        inst.insert(
            w,
            Value::record([
                ("name", Value::str(format!("Wife{i}_{suffix}"))),
                ("sex", Value::tag("female")),
                ("spouse", Value::oid(h)),
            ]),
        )
        .expect("fresh identity");
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_engine::{check_constraints, naive_transform, Databases};

    /// Generate an instance that *violates* the spouse constraints: everyone's
    /// spouse points at the first person, regardless of sex or symmetry.
    fn generate_broken(people: usize, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut inst = Instance::new("people_v1");
        let class = ClassName::new("Person");
        let first = Oid::new(class.clone(), 0);
        for i in 0..people.max(1) {
            let id = Oid::new(class.clone(), i as u64);
            let sex = if rng.gen_bool(0.5) { "male" } else { "female" };
            inst.insert(
                id,
                Value::record([
                    ("name", Value::str(format!("Person{i}"))),
                    ("sex", Value::tag(sex)),
                    ("spouse", Value::oid(first.clone())),
                ]),
            )
            .expect("fresh identity");
        }
        inst
    }

    #[test]
    fn schemas_and_program_validate() {
        let w = PeopleWorkload::new();
        assert!(w.source_schema.validate().is_ok());
        assert!(w.target_schema.validate().is_ok());
        w.program().validate().unwrap();
    }

    #[test]
    fn generated_couples_satisfy_the_spouse_constraints() {
        let w = PeopleWorkload::new();
        let inst = generate_couples(5, 1);
        wol_model::validate::check_instance(&inst, &w.source_schema).unwrap();
        let constraints = w.constraints();
        let refs = [&inst];
        let dbs = Databases::new(&refs);
        let clause_refs: Vec<&wol_lang::Clause> = constraints.iter().collect();
        assert!(check_constraints(&clause_refs, &dbs).unwrap().is_empty());
    }

    #[test]
    fn broken_instances_violate_the_constraints() {
        let w = PeopleWorkload::new();
        let inst = generate_broken(6, 2);
        let constraints = w.constraints();
        let refs = [&inst];
        let dbs = Databases::new(&refs);
        let clause_refs: Vec<&wol_lang::Clause> = constraints.iter().collect();
        assert!(!check_constraints(&clause_refs, &dbs).unwrap().is_empty());
    }

    #[test]
    fn evolution_transformation_produces_marriages() {
        let w = PeopleWorkload::new();
        let program = w.program();
        let source = generate_couples(4, 3);
        let target = naive_transform(&program, &[&source][..], "people_v2").unwrap();
        assert_eq!(target.extent_size(&ClassName::new("Male")), 4);
        assert_eq!(target.extent_size(&ClassName::new("Female")), 4);
        assert_eq!(target.extent_size(&ClassName::new("Marriage")), 4);
        // Every marriage links a Male to a Female.
        for (_, value) in target.objects(&ClassName::new("Marriage")) {
            let husband = value.project("husband").and_then(|v| v.as_oid()).unwrap();
            let wife = value.project("wife").and_then(|v| v.as_oid()).unwrap();
            assert_eq!(husband.class(), &ClassName::new("Male"));
            assert_eq!(wife.class(), &ClassName::new("Female"));
        }
    }

    #[test]
    fn transformation_is_injective_on_valid_instances_only() {
        // Two valid instances with different pairings stay distinguishable;
        // two invalid instances that differ only in spouse direction collapse.
        let w = PeopleWorkload::new();
        let program = w.program();
        let transform = |source: &Instance| naive_transform(&program, &[source][..], "people_v2");

        let valid_a = generate_couples(2, 10);
        let valid_b = generate_couples(2, 11);
        let report = wol_engine::check_injective(&[valid_a, valid_b], transform, 3).unwrap();
        assert!(report.is_injective());

        // A symmetric couple and the same couple with an asymmetric spouse
        // attribute (the wife's spouse points at herself — representable in
        // the old schema, not expressible in the evolved one) map to the same
        // Male/Female/Marriage target: the transformation loses information on
        // instances violating (C9)-(C11).
        let symmetric = generate_couples(1, 12);
        let mut asymmetric = symmetric.clone();
        let class = ClassName::new("Person");
        let wife = Oid::new(class.clone(), 1);
        let mut v = asymmetric.value(&wife).unwrap().clone();
        if let Value::Record(ref mut fields) = v {
            fields.insert("spouse".into(), Value::oid(wife.clone()));
        }
        asymmetric.update(&wife, v).unwrap();
        assert!(!wol_engine::instances_equivalent(
            &symmetric,
            &asymmetric,
            3
        ));

        let family = vec![symmetric, asymmetric];
        let report = wol_engine::check_injective(&family, transform, 3).unwrap();
        assert!(
            !report.is_injective(),
            "information loss should be detected"
        );

        // Filtering by the constraints removes the offending instance, and on
        // the remaining (valid) family the transformation is injective.
        let constraints = w.constraints();
        let clause_refs: Vec<&wol_lang::Clause> = constraints.iter().collect();
        let satisfying =
            wol_engine::info_preserve::satisfying_instances(&family, &clause_refs).unwrap();
        assert_eq!(satisfying.len(), 1);
    }
}
