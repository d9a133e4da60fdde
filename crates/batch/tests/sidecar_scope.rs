//! Regression: per-job telemetry sidecars must be *job-scoped*.
//!
//! The telemetry event buffer is process-global, so two jobs running on
//! different worker threads interleave their events in it. Each job's device
//! records on its own lazily-allocated tracks, and the sidecar writer
//! filters the shared buffer down to those tracks — a sidecar must never
//! carry another job's kernel events, no matter how the scheduler
//! interleaved the work. What is the job's own must all be there: warp
//! divergence rides each launch's kernel event, so the sidecar accounts for
//! every divergent warp of the job. Its `kernels` table does not come from
//! the trace at all: it is the fold of what the job's steps returned, the
//! same with tracing off.

use batch::{BatchConfig, BatchExecutor, Scenario, ScenarioGen};
use room_acoustics::{SimSetup, Simulation};
use serde_json::Value;
use std::collections::BTreeSet;
use std::sync::Mutex;
use vgpu::telemetry::sink::KernelSummary;
use vgpu::telemetry::KernelMetrics;
use vgpu::{telemetry, Device, ExecMode};

/// The trace mode is process-wide and the two tests want different ones.
static TRACE_MODE: Mutex<()> = Mutex::new(());

/// One [`KernelSummary`] per kernel of the scenario stepped directly, on as
/// many devices as a batch job uses, wall time left out.
fn stepped_directly(sc: &Scenario) -> Vec<KernelSummary> {
    let devices = (0..vgpu::device_count_from_env()).map(|_| Device::gtx780()).collect();
    let setup = SimSetup::new(&sc.config());
    let mut sim = Simulation::new(setup, sc.precision, sc.boundary_kernel(), devices);
    sim.impulse(sc.source.0, sc.source.1, sc.source.2, sc.amp);
    let mut kernels: Vec<KernelSummary> =
        sim.kernels().map(|k| KernelSummary::new(&k.kernel.name)).collect();
    for (volume, boundary) in (0..sc.steps).flat_map(|_| sim.step(ExecMode::Fast)) {
        for (k, stats) in kernels.iter_mut().zip(std::iter::once(&volume).chain(&boundary)) {
            k.add(&KernelMetrics::from(stats), 0.0);
        }
    }
    kernels
}

/// With tracing off a sidecar's `kernels` is still the whole per-kernel
/// table: equal, wall time aside, to folding the same scenario's steps
/// directly, and `JobOutput::launches` is its launch count.
#[test]
fn untraced_sidecars_carry_the_fold_of_what_the_steps_returned() {
    let _mode = TRACE_MODE.lock().unwrap();
    telemetry::set_mode(telemetry::TraceMode::Off);
    let dir = std::env::temp_dir().join(format!("vgpu_sidecar_untraced_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = BatchConfig { threads: 2, sidecar_dir: Some(dir.clone()), ..Default::default() };
    for r in BatchExecutor::new(cfg).run_all(ScenarioGen::new(7).take(4)) {
        let label = r.scenario.label();
        let out = r.outcome.as_ref().unwrap_or_else(|e| panic!("{label}: {e}"));
        let text = std::fs::read_to_string(out.sidecar.as_ref().expect("a sidecar")).unwrap();
        let doc: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(doc.pointer("/trace/kernel_events").and_then(Value::as_u64), Some(0));
        let rows = doc.get("kernels").expect("a kernels table").to_string();
        let mut kernels: Vec<KernelSummary> = serde_json::from_str(&rows).unwrap();
        assert!(kernels.iter().all(|k| k.wall_ms > 0.0), "{label}: {kernels:?}");
        kernels.iter_mut().for_each(|k| k.wall_ms = 0.0);
        assert_eq!(kernels, stepped_directly(&r.scenario), "{label}");
        assert_eq!(out.launches as u64, kernels.iter().map(|k| k.launches).sum::<u64>());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_thread_sidecars_carry_only_their_own_jobs_events() {
    let _mode = TRACE_MODE.lock().unwrap();
    // Enable event recording without a sink (events stay in the buffer).
    telemetry::set_mode(telemetry::TraceMode::Json);
    let dir = std::env::temp_dir().join(format!("vgpu_sidecar_scope_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cfg = BatchConfig { threads: 2, sidecar_dir: Some(dir.clone()), ..Default::default() };
    let results = BatchExecutor::new(cfg).run_all(ScenarioGen::new(99).take(6));

    let mut all_tracks: BTreeSet<u64> = BTreeSet::new();
    for r in &results {
        let label = r.scenario.label();
        let out = r.outcome.as_ref().unwrap_or_else(|e| panic!("{label}: {e}"));
        let path = out.sidecar.as_ref().unwrap_or_else(|| panic!("{label}: no sidecar written"));
        let text = std::fs::read_to_string(path).unwrap();
        let doc: Value = serde_json::from_str(&text).unwrap();

        // Each job ran on its own device → its own fresh tracks; the sets
        // must be pairwise disjoint across jobs.
        let tracks: BTreeSet<u64> = doc
            .pointer("/trace/tracks")
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{label}: sidecar has no trace.tracks"))
            .iter()
            .map(|t| t.as_u64().unwrap())
            .collect();
        assert!(!tracks.is_empty(), "{label}: tracing was on but no tracks recorded");
        assert!(
            all_tracks.is_disjoint(&tracks),
            "{label}: sidecar shares tracks with another job's sidecar"
        );
        all_tracks.extend(&tracks);

        // Every embedded event must sit on one of this job's tracks…
        let events = doc
            .pointer("/trace/events")
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{label}: sidecar has no trace.events"));
        let mut kernel_events = 0u64;
        let mut oracle_events = 0u64;
        let mut divergent_warps = 0u64;
        for ev in events {
            let track = ev
                .pointer("/track")
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("{label}: embedded event without a track: {ev:?}"));
            assert!(tracks.contains(&track), "{label}: foreign event leaked into sidecar");
            if ev.get("ev").and_then(Value::as_str) == Some("kernel") {
                divergent_warps += ev
                    .pointer("/metrics/divergent_warps")
                    .and_then(Value::as_u64)
                    .unwrap_or_else(|| panic!("{label}: kernel event without divergent_warps"));
                // Under VGPU_ENGINE=diff every launch additionally traces
                // its tree-walker oracle leg as its own kernel span; only
                // the logical launches count against the job's tally.
                if ev.get("engine").and_then(Value::as_str) == Some("tree(oracle)") {
                    oracle_events += 1;
                } else {
                    kernel_events += 1;
                }
            }
        }
        // …and the kernel-event count must equal the launches this job
        // itself issued. An unfiltered global buffer would exceed it as
        // soon as two jobs overlap.
        assert_eq!(
            doc.pointer("/trace/kernel_events").and_then(Value::as_u64),
            Some(kernel_events + oracle_events),
            "{label}: kernel_events disagrees with embedded events"
        );
        assert_eq!(
            kernel_events, out.launches as u64,
            "{label}: sidecar kernel events != this job's launches"
        );
        // The volume kernel's `nbrs > 0` store branch splits every warp
        // that straddles a wall, so every room diverges somewhere.
        assert!(divergent_warps > 0, "{label}: no divergent warp reached the sidecar");
        assert_eq!(
            divergent_warps,
            stepped_directly(&r.scenario).iter().map(|k| k.divergent_warps).sum::<u64>(),
            "{label}: sidecar divergence != the scenario's own"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
