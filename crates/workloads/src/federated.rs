//! E13: the genome warehouse split across three backend sources.
//!
//! The paper's trials pulled data from heterogeneous stores — a Sybase
//! relational database and an ACeDB tree store (Section 6). This workload
//! pushes that setting to its federated extreme: the warehouse integrates
//! *three* fragments, each served by a different [`storage::ScanProvider`]
//! backend:
//!
//! * `CloneR` — a relational table ([`storage::RelationalProvider`]),
//! * `MarkerA` — an ACeDB-style store ([`storage::AceProvider`]), and
//! * `AssayC` — a large CSV export ([`storage::CsvDirProvider`]).
//!
//! One WOL program joins all three into the `fedwh` warehouse. Every
//! fragment carries a selective comparison written directly on a scan
//! projection (`C.length < …`, `S.position < …`, `980 =< R.level`), so the
//! planner's pushdown split can divert all three into the providers; the
//! assay CSV also carries a `batch` column no clause reads, which the
//! projection push prunes at the source. The generators are *coupled* so
//! that no reference dangles after filtering: markers only reference clones
//! that pass the length cutoff, and assays only reference markers that pass
//! the position cutoff (a Skolem in value position mints an identity without
//! inserting into the extent, so a dangling reference would silently produce
//! an attribute-less object).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use storage::relational::{Column, Table, TableSchema};
use storage::{AceObject, AceStore, AceValue};
use storage::{AceProvider, CsvDirProvider, RelationalProvider};
use wol_lang::program::{Program, SchemaBinding};
use wol_model::{Schema, Type, Value};

/// Clones at or above this length stay out of the warehouse (pushed as
/// `C.length < 180000`).
pub const LENGTH_CUTOFF: i64 = 180_000;

/// Markers at or beyond this position stay out (pushed as
/// `S.position < 30000000`).
pub const POSITION_CUTOFF: i64 = 30_000_000;

/// Assays below this expression level stay out (pushed as
/// `980 =< R.level`); levels are uniform in `0..1000`, so roughly 2% of
/// assay rows survive — the selectivity behind the pushdown bench gap.
pub const LEVEL_FLOOR: i64 = 980;

/// The federated source schema: one class per backend fragment. Backends
/// stream *keyed* rows (references arrive as the referenced object's string
/// key), so `MarkerA.clone_name` and `AssayC.marker` are strings here and
/// only become object references in the warehouse.
pub fn source_schema() -> Schema {
    Schema::new("fedsrc")
        .with_class(
            "CloneR",
            Type::record([
                ("name", Type::str()),
                ("length", Type::int()),
                ("lab", Type::str()),
            ]),
        )
        .with_class(
            "MarkerA",
            Type::record([
                ("name", Type::str()),
                ("position", Type::int()),
                ("clone_name", Type::str()),
            ]),
        )
        .with_class(
            "AssayC",
            Type::record([
                ("sample", Type::str()),
                ("marker", Type::str()),
                ("tissue", Type::str()),
                ("level", Type::int()),
                ("batch", Type::str()),
            ]),
        )
}

/// The integrated warehouse schema with real object references.
pub(crate) fn target_schema() -> Schema {
    Schema::new("fedwh")
        .with_class(
            "CloneW",
            Type::record([
                ("name", Type::str()),
                ("length", Type::int()),
                ("lab", Type::str()),
            ]),
        )
        .with_class(
            "MarkerW",
            Type::record([
                ("name", Type::str()),
                ("position", Type::int()),
                ("clone", Type::class("CloneW")),
            ]),
        )
        .with_class(
            "AssayW",
            Type::record([
                ("sample", Type::str()),
                ("marker", Type::class("MarkerW")),
                ("tissue", Type::str()),
                ("level", Type::int()),
            ]),
        )
}

/// The integration program. The three selections are written directly on
/// scan projections (not through a bound variable) so the planner can
/// recognise them as pushable; each source class is scanned exactly once
/// across the program, which keeps all three eligible for pushdown.
pub(crate) fn program_text() -> &'static str {
    "F1: X in CloneW, X.name = N, X.length = L, X.lab = B <= \
         C in CloneR, N = C.name, L = C.length, B = C.lab, C.length < 180000;\n\
     F2: M in MarkerW, M.name = N, M.position = P, M.clone = X <= \
         S in MarkerA, N = S.name, P = S.position, S.position < 30000000, \
         X in CloneW, X.name = S.clone_name;\n\
     F3: W in AssayW, W.sample = A, W.marker = M, W.tissue = T, W.level = L <= \
         R in AssayC, A = R.sample, T = R.tissue, L = R.level, 980 =< R.level, \
         M in MarkerW, M.name = R.marker;\n\
     K1: X = Mk_CloneW(N) <= X in CloneW, N = X.name;\n\
     K2: M = Mk_MarkerW(N) <= M in MarkerW, N = M.name;\n\
     K3: W = Mk_AssayW(A, T) <= W in AssayW, A = W.sample, T = W.tissue;"
}

/// The federated warehouse-load program.
pub fn program() -> Program {
    Program::new(
        "fedsrc_to_fedwh",
        vec![SchemaBinding::new(source_schema())],
        SchemaBinding::new(target_schema()),
    )
    .with_text(program_text())
}

/// Parameters of the federated generator.
#[derive(Clone, Copy, Debug)]
pub struct FederatedParams {
    /// Number of clones in the relational fragment.
    pub clones: usize,
    /// Number of markers in the ACeDB-style fragment.
    pub markers: usize,
    /// Number of assay rows in the CSV fragment.
    pub assays: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FederatedParams {
    fn default() -> Self {
        FederatedParams {
            clones: 40,
            markers: 120,
            assays: 2_000,
            seed: 13,
        }
    }
}

impl FederatedParams {
    /// The E13 bench shape scaled `factor`×: the assay CSV dominates, so the
    /// pushdown gap is the cost of streaming (and ingesting) 20 000·factor
    /// rows versus the ~2% that pass the level floor.
    pub fn scaled(factor: usize) -> Self {
        FederatedParams {
            clones: 100 * factor,
            markers: 300 * factor,
            assays: 20_000 * factor,
            seed: 13,
        }
    }
}

const LABS: [&str; 3] = ["Sanger", "LANL", "WashU"];
const TISSUES: [&str; 6] = ["liver", "brain", "kidney", "muscle", "lung", "skin"];

/// Generate the relational fragment: one `CloneR` table keyed by `name`.
/// Clone 0 always passes the length cutoff so the downstream fragments have
/// at least one reference target.
pub fn generate_clone_tables(params: &FederatedParams) -> Vec<Table> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut table = Table::new(TableSchema {
        name: "CloneR".to_string(),
        key_column: "name".to_string(),
        columns: vec![
            Column::str("name"),
            Column::int("length"),
            Column::str("lab"),
        ],
    });
    for c in 0..params.clones {
        let length = if c == 0 {
            120_000
        } else {
            rng.gen_range(10_000..200_000)
        };
        let lab = LABS[rng.gen_range(0..LABS.len())];
        table
            .push_row(vec![
                Value::str(format!("cR-{c}")),
                Value::Int(length),
                Value::str(lab),
            ])
            .expect("generated clone rows conform to the table schema");
    }
    vec![table]
}

/// The clone names that survive the pushed length filter — the only valid
/// reference targets for generated markers.
fn passing_clone_names(params: &FederatedParams) -> Vec<String> {
    generate_clone_tables(params)
        .remove(0)
        .rows
        .into_iter()
        .filter_map(|row| match (&row[0], &row[1]) {
            (Value::Str(name), Value::Int(length)) if *length < LENGTH_CUTOFF => Some(name.clone()),
            _ => None,
        })
        .collect()
}

/// Generate the ACeDB-style fragment: `Marker` objects with `Position` and
/// `Clone` tags, plus the mapping that streams them as `MarkerA` rows.
/// Marker 0 always passes the position cutoff, and every marker references
/// a clone that passes the length cutoff.
pub fn generate_marker_store(params: &FederatedParams) -> (AceStore, Vec<storage::AceMapping>) {
    let clones = passing_clone_names(params);
    assert!(!clones.is_empty(), "clone 0 always passes the cutoff");
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(1));
    let mut store = AceStore::new();
    for m in 0..params.markers {
        let position = if m == 0 {
            1_000_000
        } else {
            rng.gen_range(0..50_000_000)
        };
        let clone = &clones[rng.gen_range(0..clones.len())];
        store.add(
            AceObject::new("Marker", format!("D13S{m}"))
                .with_tag("Position", AceValue::Int(position))
                .with_tag(
                    "Clone",
                    AceValue::ObjectRef("Clone".to_string(), clone.clone()),
                ),
        );
    }
    let mappings = vec![storage::AceMapping::new(
        "Marker",
        "MarkerA",
        &[("Position", "position"), ("Clone", "clone_name")],
    )];
    (store, mappings)
}

/// The marker names that survive the pushed position filter — the only
/// valid reference targets for generated assays.
fn passing_marker_names(params: &FederatedParams) -> Vec<String> {
    let (store, _) = generate_marker_store(params);
    store
        .of_class("Marker")
        .into_iter()
        .filter(|object| {
            matches!(object.tags.get("Position"),
                     Some(AceValue::Int(p)) if *p < POSITION_CUTOFF)
        })
        .map(|object| object.name.clone())
        .collect()
}

/// Generate the CSV fragment as text: `AssayC` rows keyed by `sample`, each
/// referencing a marker that passes the position cutoff. The `batch` column
/// is read by no clause, so the projection push prunes it at the source.
pub fn generate_assay_csv(params: &FederatedParams) -> String {
    let markers = passing_marker_names(params);
    assert!(!markers.is_empty(), "marker 0 always passes the cutoff");
    let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(2));
    let mut table = Table::new(TableSchema {
        name: "AssayC".to_string(),
        key_column: "sample".to_string(),
        columns: vec![
            Column::str("sample"),
            Column::str("marker"),
            Column::str("tissue"),
            Column::int("level"),
            Column::str("batch"),
        ],
    });
    for a in 0..params.assays {
        let marker = &markers[rng.gen_range(0..markers.len())];
        let tissue = TISSUES[a % TISSUES.len()];
        let level = rng.gen_range(0..1000);
        table
            .push_row(vec![
                Value::str(format!("A{a}")),
                Value::str(marker.clone()),
                Value::str(tissue),
                Value::Int(level),
                Value::str(format!("B{}", a % 7)),
            ])
            .expect("generated assay rows conform to the table schema");
    }
    storage::csv::to_csv(&table)
}

/// Build the three backend providers for `params`. Returned in source-class
/// order (`AssayC` CSV, `MarkerA` AceDB, `CloneR` relational); callers pass
/// them to `morphase::Morphase::transform_federated` as
/// `&[&csv, &ace, &rel]`.
pub fn providers(params: &FederatedParams) -> (CsvDirProvider, AceProvider, RelationalProvider) {
    let csv = CsvDirProvider::from_texts(vec![(
        "AssayC".to_string(),
        "generated://AssayC.csv".to_string(),
        generate_assay_csv(params),
    )])
    .expect("generated assay CSV parses cleanly");
    let (store, mappings) = generate_marker_store(params);
    let ace = AceProvider::new(store, mappings);
    let rel = RelationalProvider::new(generate_clone_tables(params));
    (csv, ace, rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::{Pushdown, ScanProvider, DEFAULT_CHUNK_ROWS};
    use wol_model::ClassName;

    #[test]
    fn schemas_and_program_validate() {
        assert!(source_schema().validate().is_ok());
        assert!(target_schema().validate().is_ok());
        program().validate().unwrap();
    }

    #[test]
    fn generators_are_deterministic() {
        let params = FederatedParams::default();
        assert_eq!(generate_assay_csv(&params), generate_assay_csv(&params));
        let (a, _) = generate_marker_store(&params);
        let (b, _) = generate_marker_store(&params);
        assert_eq!(a.of_class("Marker").len(), b.of_class("Marker").len());
        assert_eq!(
            generate_clone_tables(&params),
            generate_clone_tables(&params)
        );
    }

    #[test]
    fn every_reference_targets_a_surviving_object() {
        let params = FederatedParams {
            clones: 15,
            markers: 40,
            assays: 200,
            seed: 7,
        };
        let clones = passing_clone_names(&params);
        let (store, _) = generate_marker_store(&params);
        for object in store.of_class("Marker") {
            let Some(AceValue::ObjectRef(_, name)) = object.tags.get("Clone") else {
                panic!("every marker carries a Clone tag");
            };
            assert!(clones.contains(name), "marker references a filtered clone");
        }
        let markers = passing_marker_names(&params);
        let csv = generate_assay_csv(&params);
        let table = storage::csv::parse_csv("AssayC", &csv).unwrap();
        let marker_idx = table
            .schema
            .columns
            .iter()
            .position(|c| c.name == "marker")
            .unwrap();
        for row in &table.rows {
            let Value::Str(name) = &row[marker_idx] else {
                panic!("marker column is a string key");
            };
            assert!(markers.contains(name), "assay references a filtered marker");
        }
    }

    #[test]
    fn providers_cover_the_source_schema() {
        let params = FederatedParams {
            clones: 6,
            markers: 12,
            assays: 60,
            seed: 3,
        };
        let (csv, ace, rel) = providers(&params);
        let backends: [&dyn ScanProvider; 3] = [&csv, &ace, &rel];
        let mut classes: Vec<ClassName> = backends.iter().flat_map(|p| p.classes()).collect();
        classes.sort();
        assert_eq!(
            classes,
            vec![
                ClassName::new("AssayC"),
                ClassName::new("CloneR"),
                ClassName::new("MarkerA"),
            ]
        );
        for backend in backends {
            for class in backend.classes() {
                let stats = backend.stats(&class).unwrap();
                let mut rows = 0usize;
                backend
                    .scan(
                        &class,
                        &Pushdown::none(),
                        DEFAULT_CHUNK_ROWS,
                        &mut |chunk| {
                            rows += chunk.len();
                            Ok(())
                        },
                    )
                    .unwrap();
                assert_eq!(rows, stats.rows, "stats match the streamed extent");
                assert!(stats.ndvs.contains_key("name") || stats.ndvs.contains_key("sample"));
            }
        }
    }

    #[test]
    fn level_floor_is_selective() {
        let params = FederatedParams::default();
        let table = storage::csv::parse_csv("AssayC", &generate_assay_csv(&params)).unwrap();
        let level_idx = table
            .schema
            .columns
            .iter()
            .position(|c| c.name == "level")
            .unwrap();
        let passing = table
            .rows
            .iter()
            .filter(|row| matches!(&row[level_idx], Value::Int(l) if *l >= LEVEL_FLOOR))
            .count();
        assert!(passing > 0, "some assays pass the floor");
        assert!(
            passing * 10 < table.rows.len(),
            "the floor keeps under 10% of rows ({passing}/{})",
            table.rows.len()
        );
    }
}
