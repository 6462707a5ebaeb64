//! Shared configuration and tooling for the benchmark harness.
//!
//! Every bench uses a reduced sample count so that the full suite regenerating
//! the paper's evaluation claims (experiments E1-E7, see EXPERIMENTS.md) runs
//! in minutes rather than hours. The absolute numbers are not expected to
//! match the 1997 hardware; the *shape* of each comparison is.
//!
//! Benches additionally emit machine-readable `BENCH_<name>.json` summaries
//! into the workspace root (see [`BenchJson`]), so the performance trajectory
//! of the hot paths can be tracked across PRs without parsing criterion's
//! human-oriented output.

use std::path::PathBuf;

/// Criterion sample size used by all benches.
pub const SAMPLES: usize = 10;

/// Criterion measurement time (seconds) used by all benches.
pub const MEASURE_SECS: u64 = 2;

/// Criterion warm-up time (milliseconds) used by all benches.
pub const WARMUP_MS: u64 = 300;

/// A minimal JSON object builder (the workspace builds offline, so no serde):
/// insertion-ordered `key: value` pairs where values are numbers, strings, or
/// nested objects.
#[derive(Clone, Debug, Default)]
pub struct BenchJson {
    fields: Vec<(String, String)>,
}

impl BenchJson {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Add a float field (serialised with enough precision for timings).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.fields.push((key.to_string(), format!("{value:.6}")));
        self
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                '\n' => vec!['\\', 'n'],
                other => vec![other],
            })
            .collect();
        self.fields
            .push((key.to_string(), format!("\"{escaped}\"")));
        self
    }

    /// Add a nested object field.
    pub fn obj(mut self, key: &str, value: BenchJson) -> Self {
        self.fields.push((key.to_string(), value.render()));
        self
    }

    /// Render as a JSON object string.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Stamp the summary with the git revision and worker-thread count it was
    /// measured under. `BENCH_*.json` files are overwritten per run; the
    /// stamp ties every summary to the commit and thread configuration that
    /// produced it, so trajectories across PRs (and across `WOL_THREADS`
    /// settings) stay attributable instead of silently shadowing each other.
    pub fn stamped(self) -> Self {
        let sha = git_sha();
        self.str("git_sha", &sha).int("threads", env_threads())
    }

    /// Write the object to `<workspace root>/<file_name>` and report where it
    /// went on stderr. Failures are reported, not fatal — summaries are a
    /// convenience, not a correctness requirement.
    pub fn write(&self, file_name: &str) {
        let path = workspace_root().join(file_name);
        match std::fs::write(&path, self.render() + "\n") {
            Ok(()) => eprintln!("[bench] wrote {}", path.display()),
            Err(err) => eprintln!("[bench] could not write {}: {err}", path.display()),
        }
    }
}

/// The workspace root, resolved relative to this crate's manifest.
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// The short git revision of the workspace checkout, or `"unknown"` when git
/// is unavailable (e.g. a source tarball).
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(workspace_root())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map(|sha| sha.trim().to_string())
        .filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The worker-thread budget the benched process runs under — the same
/// policy the executors resolve ([`wol_model::Parallelism::from_env`]), so
/// the stamp can never disagree with what actually ran.
pub fn env_threads() -> u64 {
    wol_model::Parallelism::from_env().threads() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_builder_renders_nested_objects() {
        let json = BenchJson::new()
            .str("name", "e6 \"genome\"")
            .int("rows", 42)
            .num("secs", 0.125)
            .obj("inner", BenchJson::new().int("k", 1));
        assert_eq!(
            json.render(),
            "{\"name\": \"e6 \\\"genome\\\"\", \"rows\": 42, \"secs\": 0.125000, \
             \"inner\": {\"k\": 1}}"
        );
    }

    #[test]
    fn workspace_root_holds_the_workspace_manifest() {
        assert!(workspace_root().join("Cargo.toml").exists());
    }
}
