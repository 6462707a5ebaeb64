//! The federated warehouse's three fragments ingested whole, no pushdown,
//! into one resident instance — the source `requery_warm` runs the federated
//! program over — shared by the tests that need it.

use wol_repro::storage::{ingest_class, Pushdown, ScanProvider, DEFAULT_CHUNK_ROWS};
use wol_repro::wol_model::{ClassName, Instance};
use wol_repro::workloads::federated::{self, FederatedParams};

/// Every `CloneR`, `MarkerA` and `AssayC` row `params` generates, resident.
pub fn fully_ingested(params: &FederatedParams) -> Instance {
    let (csv, ace, rel) = federated::providers(params);
    let fragments: [(&str, &dyn ScanProvider); 3] =
        [("CloneR", &rel), ("MarkerA", &ace), ("AssayC", &csv)];
    let mut instance = Instance::new(federated::source_schema().name());
    for (class, provider) in fragments {
        ingest_class(
            &mut instance,
            provider,
            &ClassName::new(class),
            &Pushdown::none(),
            DEFAULT_CHUNK_ROWS,
        )
        .expect("a generated fragment ingests");
    }
    instance
}
