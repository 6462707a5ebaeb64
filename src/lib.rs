//! Umbrella crate for the WOL reproduction: re-exports every production
//! workspace member so that examples and integration tests can use a single
//! dependency. The test-only `wol-oracle` crate is a dev-dependency and is
//! not re-exported.

#![forbid(unsafe_code)]

pub use cpl;
pub use morphase;
pub use storage;
pub use wol_engine;
pub use wol_lang;
pub use wol_model;
pub use workloads;
