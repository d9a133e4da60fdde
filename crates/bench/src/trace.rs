//! Trace artifact emission for the `repro_*` binaries.
//!
//! Each binary calls [`finish`] once, after its measurements, with the
//! runtime its devices ran on: depending on its `VGPU_TRACE` mode this
//! prints the telemetry summary table (`summary`) or writes a
//! Perfetto-loadable Chrome trace to `results/<name>.trace.json` (`chrome`),
//! with a machine-readable `results/<name>.telemetry.json` alongside — the
//! per-kernel accounts, transfer totals and the metric snapshot, histograms
//! included — so traces land next to the `results/*.json` report the run
//! produced.

use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};
use vgpu::telemetry::{sink, MetricSnapshot, TraceMode};
use vgpu::Runtime;

/// The sidecar summary written next to a trace artifact.
#[derive(Debug, Serialize)]
pub struct TelemetryReport {
    /// Per-kernel accounts, keyed by (kernel, engine, precision).
    pub kernels: Vec<sink::KernelSummary>,
    /// Transfer totals by direction.
    pub transfers: Vec<sink::TransferSummary>,
    /// Snapshot of the runtime's metric registry.
    pub metrics: Vec<MetricSnapshot>,
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Drains `rt`'s trace and emits the artifact its trace mode selects (see
/// module docs). Returns the trace file path in `chrome` mode, `None` for
/// `off`/`summary`. Emission failures are reported to stderr, never fatal —
/// a repro run's exit code reflects its shape checks, not its tracing.
pub fn finish(rt: &Runtime, name: &str) -> Option<String> {
    let mode = rt.settings.trace;
    if mode == TraceMode::Off {
        return None;
    }
    let events = rt.trace.take_events();
    let metrics = rt.registry.snapshot();
    if mode == TraceMode::Summary {
        eprintln!("{}", sink::render_summary(&events, &metrics));
        return None;
    }
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return None;
    }
    let mut buf: Vec<u8> = Vec::new();
    let path = dir.join(format!("{name}.trace.json"));
    if let Err(e) = sink::write_chrome(&mut buf, &events, &metrics) {
        eprintln!("cannot render trace: {e}");
        return None;
    }
    if let Err(e) = fs::write(&path, &buf) {
        eprintln!("cannot write {}: {e}", path.display());
        return None;
    }
    let report = TelemetryReport {
        kernels: sink::kernel_summaries(&events),
        transfers: sink::transfer_summaries(&events),
        metrics,
    };
    let side = dir.join(format!("{name}.telemetry.json"));
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = fs::write(&side, json) {
                eprintln!("cannot write {}: {e}", side.display());
            }
        }
        Err(e) => eprintln!("cannot serialise telemetry report: {e}"),
    }
    let path = path.to_string_lossy().into_owned();
    eprintln!("wrote trace {path}");
    Some(path)
}
