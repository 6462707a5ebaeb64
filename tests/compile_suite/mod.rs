//! The eleven programs of wolbench's `compile_suite` (the paper's
//! compile-time evaluation, including the keyless exponential case), shared
//! by the front-end tests.

use wol_repro::wol_lang::program::Program;
use wol_repro::workloads::{constrained, federated, genome, skewed, variants, wide};

/// A program of the suite, built from its text.
pub type Build = fn() -> Program;

/// The suite, in wolbench's order, with each program's pinned
/// `(normal clauses, normal-form nodes)`.
pub const SUITE: [(&str, Build, (usize, usize)); 11] = [
    (
        "wide_partial_16_4_key",
        || wide::partial_program(16, 4, true),
        (4, 112),
    ),
    (
        "wide_partial_32_8_key",
        || wide::partial_program(32, 8, true),
        (8, 224),
    ),
    (
        "wide_partial_48_12_key",
        || wide::partial_program(48, 12, true),
        (12, 336),
    ),
    ("wide_normal_48", || wide::normal_form_program(48), (1, 248)),
    (
        "wide_partial_24_6_nokey",
        || wide::partial_program(24, 6, false),
        (63, 6_273),
    ),
    (
        "wide_partial_24_8_nokey",
        || wide::partial_program(24, 8, false),
        (255, 27_393),
    ),
    ("genome", genome::program, (7, 114)),
    ("skewed", skewed::program, (1, 39)),
    ("federated", federated::program, (3, 128)),
    ("constrained", constrained::program, (1, 13)),
    ("variants_8", || variants::wol_program(8), (16, 224)),
];
