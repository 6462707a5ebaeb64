//! A synthetic genome-centre workload standing in for Chr22DB / ACe22DB.
//!
//! The paper's trials exchanged data between the Sybase Chr22DB database and
//! the ACeDB ACe22DB database at the Sanger Centre — "sparsely populated"
//! tree data on one side, a relational schema on the other (Section 6). Those
//! databases are proprietary; this module generates a synthetic equivalent
//! with the same structural features: sparse optional attributes, references
//! between clones and markers, and a WOL program of *partial* clauses (each
//! optional attribute is contributed by its own clause, so sparsely populated
//! objects simply receive fewer attributes).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use storage::{AceObject, AceStore, AceValue};
use wol_lang::program::{Program, SchemaBinding};
use wol_model::{Instance, Schema, Type};

/// The schema of the imported ACeDB-style source (classes `CloneS`, `MarkerS`
/// with optional attributes, as produced by [`storage::AceStore`]).
pub fn source_schema() -> Schema {
    Schema::new("ace22")
        .with_class(
            "CloneS",
            Type::record([
                ("name", Type::str()),
                ("length", Type::optional(Type::int())),
                ("lab", Type::optional(Type::str())),
            ]),
        )
        .with_class(
            "MarkerS",
            Type::record([
                ("name", Type::str()),
                ("position", Type::optional(Type::int())),
                ("clone", Type::optional(Type::class("CloneS"))),
                ("aliases", Type::optional(Type::set(Type::str()))),
            ]),
        )
}

/// The schema of the relational-style warehouse target (Chr22DB-like).
pub fn target_schema() -> Schema {
    Schema::new("chr22")
        .with_class(
            "CloneD",
            Type::record([
                ("name", Type::str()),
                ("length", Type::optional(Type::int())),
                ("lab", Type::optional(Type::str())),
            ]),
        )
        .with_class(
            "MarkerD",
            Type::record([
                ("name", Type::str()),
                ("position", Type::optional(Type::int())),
                ("clone", Type::optional(Type::class("CloneD"))),
                ("aliases", Type::optional(Type::set(Type::str()))),
            ]),
        )
}

/// The WOL program mapping the ACeDB-style source into the warehouse. Each
/// optional attribute has its own partial clause (G2, G4–G6), so objects
/// missing the attribute simply do not match that clause.
pub fn program_text() -> &'static str {
    "G1: X in CloneD, X.name = N <= C in CloneS, C.name = N;\n\
     G2: X.length = L <= C in CloneS, X in CloneD, X.name = C.name, L = C.length;\n\
     G3: X.lab = L <= C in CloneS, X in CloneD, X.name = C.name, L = C.lab;\n\
     G4: M in MarkerD, M.name = N <= S in MarkerS, S.name = N;\n\
     G5: M.position = P <= S in MarkerS, M in MarkerD, M.name = S.name, P = S.position;\n\
     G6: M.aliases = A <= S in MarkerS, M in MarkerD, M.name = S.name, A = S.aliases;\n\
     G7: M.clone = X <= S in MarkerS, M in MarkerD, M.name = S.name, \
         X in CloneD, X.name = S.clone.name;\n\
     K1: X = Mk_CloneD(N) <= X in CloneD, N = X.name;\n\
     K2: M = Mk_MarkerD(N) <= M in MarkerD, N = M.name;"
}

/// The warehouse-load transformation program.
pub fn program() -> Program {
    Program::new(
        "ace22_to_chr22",
        vec![SchemaBinding::new(source_schema())],
        SchemaBinding::new(target_schema()),
    )
    .with_text(program_text())
}

/// Parameters of the synthetic ACe22DB-style generator.
#[derive(Clone, Copy, Debug)]
pub struct GenomeParams {
    /// Number of clones.
    pub clones: usize,
    /// Number of markers.
    pub markers: usize,
    /// Probability that any optional tag is present (sparseness knob).
    pub density: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GenomeParams {
    fn default() -> Self {
        GenomeParams {
            clones: 20,
            markers: 50,
            density: 0.6,
            seed: 22,
        }
    }
}

impl GenomeParams {
    /// The E6 bench shape (100 clones × 300 markers) scaled `factor`×, for
    /// the throughput experiments that need extents large enough to measure
    /// per-row costs (E10 runs 10–100×).
    pub fn scaled(factor: usize) -> Self {
        GenomeParams {
            clones: 100 * factor,
            markers: 300 * factor,
            density: 0.6,
            seed: 22,
        }
    }
}

/// Generate an ACeDB-style store with sparsely populated clone and marker
/// objects.
pub fn generate_ace_store(params: &GenomeParams) -> AceStore {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut store = AceStore::new();
    for c in 0..params.clones {
        let mut object = AceObject::new("Clone", format!("cE22-{c}"));
        if rng.gen_bool(params.density) {
            object = object.with_tag("Length", AceValue::Int(rng.gen_range(10_000..200_000)));
        }
        if rng.gen_bool(params.density) {
            object = object.with_tag("Sequenced_by", AceValue::Text("Sanger".to_string()));
        }
        store.add(object);
    }
    for m in 0..params.markers {
        let mut object = AceObject::new("Marker", format!("D22S{m}"));
        if rng.gen_bool(params.density) {
            object = object.with_tag("Position", AceValue::Int(rng.gen_range(0..50_000_000)));
        }
        if params.clones > 0 && rng.gen_bool(params.density) {
            let clone = rng.gen_range(0..params.clones);
            object = object.with_tag(
                "Clone",
                AceValue::ObjectRef("Clone".to_string(), format!("cE22-{clone}")),
            );
        }
        if rng.gen_bool(params.density / 2.0) {
            object = object.with_tag(
                "Aliases",
                AceValue::Many(vec![
                    AceValue::Text(format!("M{m}a")),
                    AceValue::Text(format!("M{m}b")),
                ]),
            );
        }
        store.add(object);
    }
    store
}

/// Import the generated ACeDB-style store into a model instance conforming to
/// [`source_schema`].
pub fn generate_source(params: &GenomeParams) -> Instance {
    let store = generate_ace_store(params);
    let mappings = vec![
        storage::AceMapping::new(
            "Clone",
            "CloneS",
            &[("Length", "length"), ("Sequenced_by", "lab")],
        ),
        storage::AceMapping::new(
            "Marker",
            "MarkerS",
            &[
                ("Position", "position"),
                ("Clone", "clone"),
                ("Aliases", "aliases"),
            ],
        ),
    ];
    store
        .import(&mappings, "ace22")
        .expect("generated store imports cleanly")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wol_engine::naive_transform;
    use wol_model::{ClassName, Value};

    #[test]
    fn schemas_and_program_validate() {
        assert!(source_schema().validate().is_ok());
        assert!(target_schema().validate().is_ok());
        program().validate().unwrap();
    }

    #[test]
    fn generated_source_conforms_to_schema() {
        let params = GenomeParams {
            clones: 10,
            markers: 25,
            density: 0.5,
            seed: 1,
        };
        let source = generate_source(&params);
        wol_model::validate::check_instance(&source, &source_schema()).unwrap();
        assert_eq!(source.extent_size(&ClassName::new("CloneS")), 10);
        assert_eq!(source.extent_size(&ClassName::new("MarkerS")), 25);
    }

    #[test]
    fn warehouse_load_preserves_counts_and_sparsity() {
        let params = GenomeParams {
            clones: 8,
            markers: 20,
            density: 0.5,
            seed: 5,
        };
        let source = generate_source(&params);
        let target = naive_transform(&program(), &[&source][..], "chr22").unwrap();
        assert_eq!(target.extent_size(&ClassName::new("CloneD")), 8);
        assert_eq!(target.extent_size(&ClassName::new("MarkerD")), 20);
        // Positions survive exactly for the markers that had one.
        let source_with_position = source
            .objects(&ClassName::new("MarkerS"))
            .filter(|(_, v)| v.project("position").is_some())
            .count();
        let target_with_position = target
            .objects(&ClassName::new("MarkerD"))
            .filter(|(_, v)| v.project("position").is_some())
            .count();
        assert_eq!(source_with_position, target_with_position);
        // Clone references point at CloneD objects.
        for (_, value) in target.objects(&ClassName::new("MarkerD")) {
            if let Some(Value::Oid(oid)) = value.project("clone") {
                assert_eq!(oid.class(), &ClassName::new("CloneD"));
            }
        }
    }

    #[test]
    fn density_zero_gives_fully_sparse_objects() {
        let params = GenomeParams {
            clones: 3,
            markers: 3,
            density: 0.0,
            seed: 9,
        };
        let source = generate_source(&params);
        for (_, value) in source.objects(&ClassName::new("MarkerS")) {
            assert_eq!(value.as_record().unwrap().len(), 1); // name only
        }
        let target = naive_transform(&program(), &[&source][..], "chr22").unwrap();
        assert_eq!(target.extent_size(&ClassName::new("MarkerD")), 3);
    }
}
