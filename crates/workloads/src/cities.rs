//! The Cities/States/Countries workload of Figures 1–3.
//!
//! Provides the exact schemas and clauses of the paper's running example plus
//! a scalable instance generator used by the execution tests and benchmarks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wol_lang::program::{Program, SchemaBinding};
use wol_model::{ClassName, Instance, KeyExpr, KeySpec, Schema, Type, Value};

/// The Cities workload: schemas, key specifications and the WOL program text.
#[derive(Clone, Debug)]
pub struct CitiesWorkload {
    /// The US source schema of Figure 1.
    pub us_schema: Schema,
    /// The European source schema of Figure 2.
    pub euro_schema: Schema,
    /// The integrated target schema of Figure 3.
    pub target_schema: Schema,
    /// Surrogate keys for the European source (Example 2.3).
    pub euro_keys: KeySpec,
    /// Surrogate keys for the target.
    pub target_keys: KeySpec,
}

impl Default for CitiesWorkload {
    fn default() -> Self {
        Self::new()
    }
}

impl CitiesWorkload {
    /// Build the workload's schemas and keys.
    pub fn new() -> Self {
        let us_schema = Schema::new("us")
            .with_class(
                "CityA",
                Type::record([("name", Type::str()), ("state", Type::class("StateA"))]),
            )
            .with_class(
                "StateA",
                Type::record([("name", Type::str()), ("capital", Type::class("CityA"))]),
            );
        let euro_schema = Schema::new("euro")
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
            );
        let target_schema = Schema::new("target")
            .with_class(
                "CityT",
                Type::record([
                    ("name", Type::str()),
                    (
                        "place",
                        Type::variant([
                            ("state", Type::class("StateT")),
                            ("euro_city", Type::class("CountryT")),
                        ]),
                    ),
                ]),
            )
            .with_class(
                "CountryT",
                Type::record([
                    ("name", Type::str()),
                    ("language", Type::str()),
                    ("currency", Type::str()),
                    ("capital", Type::optional(Type::class("CityT"))),
                ]),
            )
            .with_class(
                "StateT",
                Type::record([
                    ("name", Type::str()),
                    ("capital", Type::optional(Type::class("CityT"))),
                ]),
            );
        let euro_keys = KeySpec::new()
            .with_key("CountryE", KeyExpr::path("name"))
            .with_key(
                "CityE",
                KeyExpr::record([
                    ("name", KeyExpr::path("name")),
                    ("country_name", KeyExpr::path("country.name")),
                ]),
            );
        let target_keys = KeySpec::new()
            .with_key("CountryT", KeyExpr::path("name"))
            .with_key("StateT", KeyExpr::path("name"))
            .with_key("CityT", KeyExpr::path("name"));
        CitiesWorkload {
            us_schema,
            euro_schema,
            target_schema,
            euro_keys,
            target_keys,
        }
    }

    /// The WOL program text for the European side of the integration: clauses
    /// (T1)–(T3) and the key/source constraints (C2), (C3), (C8).
    pub fn euro_program_text() -> &'static str {
        "T1: X in CountryT, X.name = E.name, X.language = E.language, X.currency = E.currency \
             <= E in CountryE;\n\
         T2: Y in CityT, Y.name = E.name, Y.place = ins_euro_city(X) \
             <= E in CityE, X in CountryT, X.name = E.country.name;\n\
         T3: X.capital = Y \
             <= X in CountryT, Y in CityT, Y.place = ins_euro_city(X), \
                E in CityE, E.name = Y.name, E.country.name = X.name, E.is_capital = true;\n\
         C3: Y = Mk_CountryT(N) <= Y in CountryT, N = Y.name;\n\
         C2: X = Mk_CityT(name = N, place = P) <= X in CityT, N = X.name, P = X.place;\n\
         C8: X = Y <= X in CountryE, Y in CountryE, X.name = Y.name;"
    }

    /// The WOL program text for the US side: states and cities become
    /// `StateT`/`CityT` objects with the `state` variant of `place`.
    pub fn us_program_text() -> &'static str {
        "U1: S in StateT, S.name = A.name <= A in StateA;\n\
         U2: Y in CityT, Y.name = A.name, Y.place = ins_state(S) \
             <= A in CityA, S in StateT, S.name = A.state.name;\n\
         U3: S.capital = Y \
             <= S in StateT, Y in CityT, Y.place = ins_state(S), \
                A in StateA, A.name = S.name, A.capital.name = Y.name;\n\
         C3: Y = Mk_StateT(N) <= Y in StateT, N = Y.name;\n\
         C2: X = Mk_CityT(name = N, place = P) <= X in CityT, N = X.name, P = X.place;"
    }

    /// The source constraints (C4), (C5) on the European database: every
    /// country has exactly one capital city.
    pub fn euro_constraints_text() -> &'static str {
        "C4: Y in CityE, Y.country = X, Y.is_capital = true <= X in CountryE;\n\
         C5: X = Y <= X in CityE, Y in CityE, X.country = Y.country, \
             X.is_capital = true, Y.is_capital = true;"
    }

    /// Constraint (C1) on the US database: a state's capital belongs to it.
    pub fn us_constraints_text() -> &'static str {
        "C1: X.state = Y <= Y in StateA, X = Y.capital;"
    }

    /// The transformation program from the European source to the target.
    pub fn euro_program(&self) -> Program {
        Program::new(
            "euro_to_target",
            vec![SchemaBinding::keyed(
                self.euro_schema.clone(),
                self.euro_keys.clone(),
            )],
            SchemaBinding::keyed(self.target_schema.clone(), self.target_keys.clone()),
        )
        .with_text(Self::euro_program_text())
    }

    /// The transformation program from the US source to the target.
    pub fn us_program(&self) -> Program {
        Program::new(
            "us_to_target",
            vec![SchemaBinding::new(self.us_schema.clone())],
            SchemaBinding::keyed(self.target_schema.clone(), self.target_keys.clone()),
        )
        .with_text(Self::us_program_text())
    }

    /// The small European instance of Example 2.2.
    pub fn small_euro_instance(&self) -> Instance {
        generate_euro(2, 2, 7)
    }

    /// The small US instance of Figure 1 (two states, two cities).
    pub fn small_us_instance(&self) -> Instance {
        let mut inst = Instance::new("us");
        let city_class = ClassName::new("CityA");
        let state_class = ClassName::new("StateA");
        let pa = inst.insert_fresh(&state_class, Value::Record(Default::default()));
        let ga = inst.insert_fresh(&state_class, Value::Record(Default::default()));
        let phl = inst.insert_fresh(
            &city_class,
            Value::record([
                ("name", Value::str("Harrisburg")),
                ("state", Value::oid(pa.clone())),
            ]),
        );
        let atl = inst.insert_fresh(
            &city_class,
            Value::record([
                ("name", Value::str("Atlanta")),
                ("state", Value::oid(ga.clone())),
            ]),
        );
        inst.update(
            &pa,
            Value::record([
                ("name", Value::str("Pennsylvania")),
                ("capital", Value::oid(phl)),
            ]),
        )
        .expect("state exists");
        inst.update(
            &ga,
            Value::record([
                ("name", Value::str("Georgia")),
                ("capital", Value::oid(atl)),
            ]),
        )
        .expect("state exists");
        inst
    }
}

/// Generate a European Cities/Countries instance with `countries` countries
/// and `cities_per_country` cities each (the first city of each country is its
/// capital), using `seed` for reproducible language/currency noise.
pub fn generate_euro(countries: usize, cities_per_country: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = Instance::new("euro");
    let country_class = ClassName::new("CountryE");
    let city_class = ClassName::new("CityE");
    let languages = ["English", "French", "German", "Spanish", "Italian", "Dutch"];
    let currencies = ["sterling", "franc", "mark", "peseta", "lira", "guilder"];
    for c in 0..countries {
        let language = languages[rng.gen_range(0..languages.len())];
        let currency = currencies[rng.gen_range(0..currencies.len())];
        let country = inst.insert_fresh(
            &country_class,
            Value::record([
                ("name", Value::str(format!("Country{c}"))),
                ("language", Value::str(language)),
                ("currency", Value::str(currency)),
            ]),
        );
        for k in 0..cities_per_country {
            inst.insert_fresh(
                &city_class,
                Value::record([
                    ("name", Value::str(format!("City{c}_{k}"))),
                    ("is_capital", Value::bool(k == 0)),
                    ("country", Value::oid(country.clone())),
                ]),
            );
        }
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_engine::{execute, naive_transform, normalize, NormalizeOptions};

    #[test]
    fn schemas_validate_and_are_recursive_where_expected() {
        let w = CitiesWorkload::new();
        assert!(w.us_schema.validate().is_ok());
        assert!(w.euro_schema.validate().is_ok());
        assert!(w.target_schema.validate().is_ok());
        // Figure 1 is mutually recursive (city -> state -> capital city).
        assert!(w.us_schema.is_recursive());
        assert!(!w.euro_schema.is_recursive());
    }

    #[test]
    fn programs_validate() {
        let w = CitiesWorkload::new();
        w.euro_program().validate().unwrap();
        w.us_program().validate().unwrap();
    }

    #[test]
    fn generated_instances_satisfy_schema_and_keys() {
        let w = CitiesWorkload::new();
        let inst = generate_euro(5, 3, 1);
        wol_model::validate::check_keyed_instance(&inst, &w.euro_schema, &w.euro_keys).unwrap();
        assert_eq!(inst.extent_size(&ClassName::new("CountryE")), 5);
        assert_eq!(inst.extent_size(&ClassName::new("CityE")), 15);
        // Deterministic for a fixed seed.
        assert_eq!(generate_euro(5, 3, 1), generate_euro(5, 3, 1));
        assert_ne!(generate_euro(5, 3, 1), generate_euro(5, 3, 2));
    }

    #[test]
    fn euro_constraints_hold_on_generated_data() {
        let constraints = wol_lang::parse_program(CitiesWorkload::euro_constraints_text()).unwrap();
        let inst = generate_euro(4, 3, 3);
        let refs = [&inst];
        let dbs = wol_engine::Databases::new(&refs);
        let clause_refs: Vec<&wol_lang::Clause> = constraints.iter().collect();
        let violations = wol_engine::check_constraints(&clause_refs, &dbs).unwrap();
        assert!(violations.is_empty());
    }

    #[test]
    fn end_to_end_euro_transformation() {
        let w = CitiesWorkload::new();
        let program = w.euro_program();
        let source = generate_euro(3, 2, 11);
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let target = execute(&normal, &[&source][..], "target").unwrap();
        assert_eq!(target.extent_size(&ClassName::new("CountryT")), 3);
        assert_eq!(target.extent_size(&ClassName::new("CityT")), 6);
        // Every country has its capital filled in (the generator marks the
        // first city of each country as capital).
        for (_, value) in target.objects(&ClassName::new("CountryT")) {
            assert!(value.project("capital").is_some());
        }
        // Naive evaluation agrees on extent sizes.
        let naive = naive_transform(&program, &[&source][..], "target").unwrap();
        assert_eq!(
            naive.extent_size(&ClassName::new("CityT")),
            target.extent_size(&ClassName::new("CityT"))
        );
    }

    #[test]
    fn us_side_transformation_runs() {
        let w = CitiesWorkload::new();
        let program = w.us_program();
        let source = w.small_us_instance();
        let normal = normalize(&program, &NormalizeOptions::default()).unwrap();
        let target = execute(&normal, &[&source][..], "target").unwrap();
        assert_eq!(target.extent_size(&ClassName::new("StateT")), 2);
        assert_eq!(target.extent_size(&ClassName::new("CityT")), 2);
        let pa = target
            .find_by_field(
                &ClassName::new("StateT"),
                "name",
                &Value::str("Pennsylvania"),
            )
            .unwrap();
        assert!(target.value(pa).unwrap().project("capital").is_some());
    }

    #[test]
    fn us_constraint_c1_holds_on_small_instance() {
        let w = CitiesWorkload::new();
        let inst = w.small_us_instance();
        let clauses = wol_lang::parse_program(CitiesWorkload::us_constraints_text()).unwrap();
        let refs = [&inst];
        let dbs = wol_engine::Databases::new(&refs);
        let clause_refs: Vec<&wol_lang::Clause> = clauses.iter().collect();
        assert!(wol_engine::check_constraints(&clause_refs, &dbs)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn small_euro_instance_has_example_shape() {
        let w = CitiesWorkload::new();
        let inst = w.small_euro_instance();
        assert_eq!(inst.extent_size(&ClassName::new("CountryE")), 2);
        assert_eq!(inst.extent_size(&ClassName::new("CityE")), 4);
    }
}
