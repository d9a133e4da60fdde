//! The unified run report: one machine-readable `results/run_report.json`
//! (plus a text rendering) per bench/repro invocation.
//!
//! Every `repro_*` binary, `dispatch_bench`, and `batch_bench` ends by
//! calling [`emit`] with its one-line result record. The report joins that
//! record with everything the observability stack accumulated during the
//! run — the kernel profiler's per-(kernel, engine, precision) attribution
//! and per-op hotspots ([`vgpu::profiler`]), the measured-vs-modeled
//! residual fit, the metric-registry snapshot (with histogram percentiles),
//! and the provenance fields committed bench snapshots carry — so a single
//! artifact answers "what ran, how fast, where did time go, and how wrong
//! was the model". `bench_compare` diffs two of these (or two `BENCH_*`
//! snapshots) and gates regressions.

use crate::provenance;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::path::{Path, PathBuf};
use vgpu::profiler;
use vgpu::telemetry::MetricSnapshot;

/// Schema version stamped into every report; bump on breaking layout
/// changes so `bench_compare --check` can reject mixed-version diffs.
pub const SCHEMA_VERSION: u32 = 1;

/// The unified run report (see module docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Report layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Emitting binary's name (e.g. `dispatch_bench`).
    pub name: String,
    /// Resolved engine label (`VGPU_ENGINE`).
    pub engine: String,
    /// Interpreter threads the run used.
    pub threads: usize,
    /// Virtual device count the run sharded across (`VGPU_DEVICES`);
    /// defaults to 1 so pre-sharding reports still parse.
    #[serde(default = "default_devices")]
    pub devices: usize,
    /// Active `VGPU_PROFILE` mode during the run.
    pub profile_mode: String,
    /// Shadow-memory sanitizer mode (`VGPU_SANITIZE`); defaults to `off`
    /// so pre-sanitizer reports still parse.
    #[serde(default = "default_sanitize")]
    pub sanitize: String,
    /// The binary's own result record (its one-line JSON, as a tree).
    pub record: Value,
    /// Kernel profiles accumulated during the run (empty when profiling
    /// was off).
    pub kernels: Vec<vgpu::KernelProfileSnapshot>,
    /// Measured-vs-modeled residual fit over `kernels` (`None` without
    /// modeled launches or with profiling off).
    pub residual: Option<vgpu::ResidualReport>,
    /// Metric-registry snapshot, histogram percentiles included.
    pub metrics: Vec<MetricSnapshot>,
}

fn default_devices() -> usize {
    1
}

fn default_sanitize() -> String {
    "off".to_string()
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Builds the report for the current process state: profiler snapshot,
/// residual fit, registry snapshot, provenance.
pub fn build(name: &str, record: Value) -> RunReport {
    let kernels = profiler::snapshot();
    let residual = profiler::residuals(&kernels);
    RunReport {
        schema_version: SCHEMA_VERSION,
        name: name.to_string(),
        engine: provenance::engine_label(),
        threads: provenance::threads(),
        devices: provenance::device_count(),
        profile_mode: profiler::mode().label().to_string(),
        sanitize: provenance::sanitize_label().to_string(),
        record,
        kernels,
        residual,
        metrics: vgpu::telemetry::registry().snapshot(),
    }
}

/// Renders the human-readable form: provenance header, the profiler's
/// per-kernel/hotspot/residual tables when profiling ran, and a metric
/// digest.
pub fn render(report: &RunReport) -> String {
    let mut out = format!(
        "== run report: {} (engine {}, {} threads, {} device(s), profile {}, sanitize {}) ==\n",
        report.name,
        report.engine,
        report.threads,
        report.devices,
        report.profile_mode,
        report.sanitize
    );
    if report.kernels.is_empty() {
        out.push_str("(no kernel profiles — set VGPU_PROFILE=kernel|op to attribute time)\n");
    } else {
        out.push_str(&profiler::render_report(&report.kernels));
    }
    out
}

/// Writes `results/run_report.json` (+ `.txt` rendering) and, when
/// profiling is active, prints the rendering to stderr. Failures go to
/// stderr and are never fatal — reports must not change a bench's exit
/// code. Returns the JSON path on success.
pub fn emit(name: &str, record: Value) -> Option<PathBuf> {
    let report = build(name, record);
    let text = render(&report);
    if profiler::enabled() {
        eprintln!("{text}");
    }
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return None;
    }
    let txt_path = dir.join("run_report.txt");
    if let Err(e) = std::fs::write(&txt_path, &text) {
        eprintln!("cannot write {}: {e}", txt_path.display());
    }
    let json_path = dir.join("run_report.json");
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&json_path, json) {
                eprintln!("cannot write {}: {e}", json_path.display());
                return None;
            }
        }
        Err(e) => {
            eprintln!("cannot serialise run report: {e}");
            return None;
        }
    }
    eprintln!("wrote run report {}", json_path.display());
    Some(json_path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn report_roundtrips_through_json() {
        let report = build("unit", json!({"bench": "unit", "ms": 1.5}));
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: RunReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.name, "unit");
        assert_eq!(back.record.pointer("/bench").and_then(Value::as_str), Some("unit"));
        assert!(render(&back).contains("run report: unit"));
    }
}
