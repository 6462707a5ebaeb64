//! E7 — a *skewed* genome workload where a planner blind to the value
//! distribution provably misorders joins.
//!
//! The paper's Section 6 trials (Chr22DB → ACe22DB) are exactly the
//! workloads where real data is skewed: a few clones carry most markers.
//! This module generates a synthetic genome source with a **zipfian
//! marker-per-clone distribution** — `MarkerS` and `ProbeS` objects both
//! reference clones, and the reference counts follow a zipf law, so the
//! equality join `M.clone_name = P.clone_name` produces `Σ_c m_c · p_c`
//! rows, far more than the uniform model's `|M|·|P| / ndv` predicts.
//!
//! The transformation joins three relations in a triangle:
//!
//! ```text
//! MarkerS ──(clone_name = clone_name)── ProbeS
//!     \                                   /
//!  (bin = bin)                 (lane = lane)
//!       \                              /
//!               LaneS  (small)
//! ```
//!
//! The zipfian clone attribute has *more* measured distinct values than the
//! uniform `bin`/`lane` attributes, so a uniform `1/ndv` estimate scores the
//! marker–probe join as the cheapest pair, and the statistics-blind planner
//! (`Statistics::empty()`) picks the same order: both join the two skewed
//! sides first, materialising the `Σ m_c · p_c` blow-up. The planner's
//! histograms see the skew head exactly, score that join as the most
//! expensive, and anchor on the small `LaneS` relation instead. The plans
//! produce identical targets; `tests/perf_regression.rs` pins the ≥3× gap in
//! peak intermediate rows against the statistics-blind plan.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wol_lang::program::{Program, SchemaBinding};
use wol_model::{ClassName, Instance, Schema, Type, Value};

/// The skewed ACe22DB-style source schema: clones, plus markers and probes
/// that both reference clones by name, plus a small lane lookup relation.
pub(crate) fn source_schema() -> Schema {
    Schema::new("ace22skew")
        .with_class(
            "CloneS",
            Type::record([("name", Type::str()), ("lab", Type::str())]),
        )
        .with_class(
            "MarkerS",
            Type::record([
                ("name", Type::str()),
                ("clone_name", Type::str()),
                ("bin", Type::int()),
            ]),
        )
        .with_class(
            "ProbeS",
            Type::record([
                ("name", Type::str()),
                ("clone_name", Type::str()),
                ("lane", Type::int()),
            ]),
        )
        .with_class(
            "LaneS",
            Type::record([
                ("name", Type::str()),
                ("bin", Type::int()),
                ("lane", Type::int()),
            ]),
        )
}

/// The warehouse target: one `HitT` object per (marker, probe, lane) triple
/// that agrees on clone, bin and lane.
pub(crate) fn target_schema() -> Schema {
    Schema::new("chr22skew").with_class(
        "HitT",
        Type::record([
            ("marker", Type::str()),
            ("probe", Type::str()),
            ("lane", Type::str()),
        ]),
    )
}

/// The transformation: a three-way triangle join whose ordering is the whole
/// game (see the module docs).
pub(crate) fn program_text() -> &'static str {
    "H1: X in HitT, X.marker = MN, X.probe = PN, X.lane = LN <= \
         M in MarkerS, P in ProbeS, L in LaneS, \
         M.clone_name = P.clone_name, M.bin = L.bin, P.lane = L.lane, \
         MN = M.name, PN = P.name, LN = L.name;\n\
     K1: X = Mk_HitT(marker = A, probe = B, lane = C) <= \
         X in HitT, A = X.marker, B = X.probe, C = X.lane;"
}

/// The E7 transformation program.
pub fn program() -> Program {
    Program::new(
        "ace22skew_to_chr22skew",
        vec![SchemaBinding::new(source_schema())],
        SchemaBinding::new(target_schema()),
    )
    .with_text(program_text())
}

/// Parameters of the skewed generator.
#[derive(Clone, Copy, Debug)]
pub struct SkewedParams {
    /// Number of clones (the skewed attribute's value domain).
    pub clones: usize,
    /// Number of markers (zipfian references into the clones).
    pub markers: usize,
    /// Number of probes (zipfian references into the clones).
    pub probes: usize,
    /// Number of lane objects (the small third relation).
    pub lanes: usize,
    /// Domain size of the uniform `bin` and `lane` attributes.
    pub bins: usize,
    /// Zipf exponent of the marker/probe-per-clone distribution.
    pub zipf_exponent: f64,
    /// RNG seed (bins and lanes are sampled; the zipf allocation itself is
    /// deterministic).
    pub seed: u64,
}

impl Default for SkewedParams {
    fn default() -> Self {
        SkewedParams::full()
    }
}

impl SkewedParams {
    /// The full-size E7 workload (the benchmark and the full-size guard).
    pub fn full() -> Self {
        SkewedParams {
            clones: 1200,
            markers: 3000,
            probes: 1000,
            lanes: 2100,
            bins: 300,
            zipf_exponent: 1.1,
            seed: 22,
        }
    }

    /// A reduced E7 for the ratio regression test: same shape, ~3× smaller.
    pub fn reduced() -> Self {
        SkewedParams {
            clones: 400,
            markers: 1000,
            probes: 350,
            lanes: 1200,
            bins: 200,
            zipf_exponent: 1.1,
            seed: 22,
        }
    }
}

/// Deterministic zipf apportionment: split `total` references over `domain`
/// values with weights `1/(rank+1)^exponent`, by largest remainder. The
/// head is exact (value 0 always gets the biggest share) and the counts sum
/// to `total` precisely, so tests do not depend on sampling noise.
pub(crate) fn zipf_counts(total: usize, domain: usize, exponent: f64) -> Vec<usize> {
    if domain == 0 || total == 0 {
        return vec![0; domain];
    }
    let weights: Vec<f64> = (0..domain)
        .map(|rank| 1.0 / ((rank + 1) as f64).powf(exponent))
        .collect();
    let norm: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w * total as f64 / norm).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let assigned: usize = counts.iter().sum();
    // Hand the remainder out by descending fractional part (ties by rank).
    let mut order: Vec<usize> = (0..domain).collect();
    order.sort_by(|&a, &b| {
        let fa = shares[a] - shares[a].floor();
        let fb = shares[b] - shares[b].floor();
        fb.partial_cmp(&fa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for &rank in order.iter().take(total - assigned) {
        counts[rank] += 1;
    }
    counts
}

/// Generate the skewed source instance.
pub fn generate_source(params: &SkewedParams) -> Instance {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut inst = Instance::new("ace22skew");
    let clone_class = ClassName::new("CloneS");
    let marker_class = ClassName::new("MarkerS");
    let probe_class = ClassName::new("ProbeS");
    let lane_class = ClassName::new("LaneS");

    for c in 0..params.clones {
        inst.insert_fresh(
            &clone_class,
            Value::record([
                ("name", Value::str(format!("cZ22-{c}"))),
                ("lab", Value::str(format!("lab-{}", c % 7))),
            ]),
        );
    }

    let bins = params.bins.max(1);
    let mut emit_refs = |class: &ClassName, prefix: &str, total: usize, uniform_attr: &str| {
        let counts = zipf_counts(total, params.clones.max(1), params.zipf_exponent);
        let mut serial = 0usize;
        for (clone, count) in counts.iter().enumerate() {
            for _ in 0..*count {
                // Uniform and independent of the clone rank.
                let rng_value = rng.gen_range(0..bins) as i64;
                inst.insert_fresh(
                    class,
                    Value::record([
                        ("name", Value::str(format!("{prefix}{serial}"))),
                        ("clone_name", Value::str(format!("cZ22-{clone}"))),
                        (uniform_attr, Value::int(rng_value)),
                    ]),
                );
                serial += 1;
            }
        }
    };
    emit_refs(&marker_class, "D22S", params.markers, "bin");
    emit_refs(&probe_class, "P22-", params.probes, "lane");

    for l in 0..params.lanes {
        inst.insert_fresh(
            &lane_class,
            Value::record([
                ("name", Value::str(format!("L{l}"))),
                ("bin", Value::int(rng.gen_range(0..bins) as i64)),
                ("lane", Value::int(rng.gen_range(0..bins) as i64)),
            ]),
        );
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_and_program_validate() {
        assert!(source_schema().validate().is_ok());
        assert!(target_schema().validate().is_ok());
        program().validate().unwrap();
    }

    #[test]
    fn zipf_counts_are_exact_and_head_heavy() {
        let counts = zipf_counts(1000, 100, 1.1);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert!(counts[0] > counts[1]);
        assert!(counts[1] >= counts[10]);
        // The head dominates: the top value alone carries well over the
        // uniform share of 10.
        assert!(counts[0] > 100, "head share too small: {}", counts[0]);
        // Degenerate shapes stay well-defined.
        assert_eq!(zipf_counts(0, 5, 1.0), vec![0; 5]);
        assert!(zipf_counts(5, 0, 1.0).is_empty());
    }

    #[test]
    fn generated_source_conforms_and_is_skewed() {
        let params = SkewedParams {
            clones: 50,
            markers: 200,
            probes: 80,
            lanes: 20,
            bins: 8,
            zipf_exponent: 1.1,
            seed: 3,
        };
        let source = generate_source(&params);
        wol_model::validate::check_instance(&source, &source_schema()).unwrap();
        assert_eq!(source.extent_size(&ClassName::new("CloneS")), 50);
        assert_eq!(source.extent_size(&ClassName::new("MarkerS")), 200);
        assert_eq!(source.extent_size(&ClassName::new("ProbeS")), 80);
        assert_eq!(source.extent_size(&ClassName::new("LaneS")), 20);
        // The top clone carries the zipf head of the markers.
        let top = source
            .lookup_by_attr(
                &ClassName::new("MarkerS"),
                "clone_name",
                &Value::str("cZ22-0"),
            )
            .len();
        assert!(top >= 30, "zipf head missing: top clone has {top} markers");
        // The histogram sees the skew: the hot value's estimated frequency
        // dwarfs the flat per-value average.
        let hist = source.attr_histogram(&ClassName::new("MarkerS"), "clone_name");
        let flat_avg = hist.entries() as f64 / hist.distinct() as f64;
        assert!(hist.eq_count(&Value::str("cZ22-0")) > 5.0 * flat_avg);
    }
}
