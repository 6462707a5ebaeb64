//! Schema evolution and information preservation (Example 4.2, Figures 4–5).
//!
//! Transforms the single-class Person database into the evolved
//! Male/Female/Marriage schema, then demonstrates the paper's point about
//! information preservation: the transformation loses information on arbitrary
//! instances, but is injective on the instances satisfying the spouse
//! constraints (C9)–(C11) — constraints expressible in WOL but not in standard
//! constraint languages.
//!
//! ```text
//! cargo run --example schema_evolution
//! ```

use wol_repro::morphase::Morphase;
use wol_repro::wol_engine::{self, check_injective, EngineError};
use wol_repro::wol_model::{display::render_instance, ClassName, Instance, Oid, Value};
use wol_repro::workloads::people::{generate_couples, PeopleWorkload};

fn main() {
    let workload = PeopleWorkload::new();
    let program = workload.program();
    println!("== WOL program (T6-T8 + keys) ==");
    println!("{}", PeopleWorkload::program_text());
    println!();
    println!("== Spouse constraints (C9-C11) ==");
    println!("{}", PeopleWorkload::constraints_text());
    println!();

    let morphase = Morphase::new();
    let source = generate_couples(3, 7);
    let run = morphase
        .transform(&program, &[&source][..])
        .expect("transforms");
    println!("== Evolved database ==");
    println!("{}", render_instance(&run.target));

    // Information preservation: a valid instance and one with an asymmetric
    // spouse attribute map to the same target.
    let valid = generate_couples(2, 1);
    let mut asymmetric = valid.clone();
    let wife = Oid::new(ClassName::new("Person"), 1);
    let mut v = asymmetric.value(&wife).unwrap().clone();
    if let Value::Record(ref mut fields) = v {
        fields.insert("spouse".into(), Value::oid(wife.clone()));
    }
    asymmetric.update(&wife, v).unwrap();

    let transform = |source: &Instance| {
        morphase
            .transform(&program, &[source][..])
            .map(|run| run.target)
            .map_err(|e| EngineError::Eval(e.to_string()))
    };
    let family = vec![valid, asymmetric];
    let report = check_injective(&family, transform, 3).expect("checks");
    println!(
        "Without constraints: {} collision(s) among {} source instances (information is lost).",
        report.collisions.len(),
        report.sources
    );

    let constraints = workload.constraints();
    let clause_refs: Vec<&wol_repro::wol_lang::Clause> = constraints.iter().collect();
    let satisfying =
        wol_engine::info_preserve::satisfying_instances(&family, &clause_refs).unwrap();
    println!(
        "Instances satisfying (C9)-(C11): {} of {} — on those the transformation is information preserving.",
        satisfying.len(),
        family.len()
    );
}
