//! Regression: per-job telemetry sidecars must be *job-scoped*.
//!
//! An executor's jobs share its runtime's trace buffer, so two jobs running
//! on different worker threads interleave their events in it. Each job's device
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
use vgpu::telemetry::sink::{self, KernelSummary};
use vgpu::telemetry::TraceMode;
use vgpu::{Device, ExecMode, Runtime, Settings};

/// An executor of two workers writing sidecars into `dir`, on a runtime
/// that traces in `trace` mode.
fn executor(trace: TraceMode, dir: &std::path::Path) -> BatchExecutor {
    let cfg = BatchConfig { threads: 2, sidecar_dir: Some(dir.to_path_buf()) };
    let rt = Runtime::new(Settings { trace, ..vgpu::runtime().settings });
    BatchExecutor::with_runtime(cfg, rt)
}

/// One [`KernelSummary`] per kernel of the scenario stepped directly, on as
/// many devices as a batch job uses, wall time zeroed.
fn stepped_directly(sc: &Scenario) -> Vec<KernelSummary> {
    let devices = (0..vgpu::runtime().settings.devices).map(|_| Device::gtx780()).collect();
    let setup = SimSetup::new(&sc.config());
    let mut sim = Simulation::new(setup, sc.precision, sc.boundary_kernel(), devices);
    sim.impulse(sc.source.0, sc.source.1, sc.source.2, sc.amp);
    let mut kernels: Vec<KernelSummary> = Vec::new();
    for _ in 0..sc.steps {
        for (volume, boundary) in sim.step(ExecMode::Fast) {
            for (k, stats) in sim.kernels().zip(std::iter::once(&volume).chain(&boundary)) {
                sink::fold_launch(&mut kernels, k.prepared(), stats);
            }
        }
    }
    kernels.iter_mut().for_each(|k| k.wall_ms = 0.0);
    kernels
}

/// A sidecar's `kernels` table with every row's `wall_ms`, which must be
/// positive, set to zero.
fn kernels_without_wall_time(doc: &Value, label: &str) -> Value {
    let rows = doc.get("kernels").and_then(Value::as_array).expect("a kernels table");
    let zero_wall = |row: &Value| {
        let fields = row.as_object().unwrap_or_else(|| panic!("{label}: row {row}"));
        let field = |(k, v): &(String, Value)| match k.as_str() {
            "wall_ms" if v.as_f64().is_some_and(|w| w > 0.0) => {
                (k.clone(), serde_json::to_value(&0.0))
            }
            "wall_ms" => panic!("{label}: no wall time in {row}"),
            _ => (k.clone(), v.clone()),
        };
        Value::Object(fields.iter().map(field).collect())
    };
    Value::Array(rows.iter().map(zero_wall).collect())
}

/// With tracing off a sidecar's `kernels` is still the whole per-kernel
/// table: equal, wall time aside, to folding the same scenario's steps
/// directly, and `JobOutput::launches` is its launch count.
#[test]
fn untraced_sidecars_carry_the_fold_of_what_the_steps_returned() {
    let dir = std::env::temp_dir().join(format!("vgpu_sidecar_untraced_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for r in executor(TraceMode::Off, &dir).run_all(ScenarioGen::new(7).take(4)) {
        let label = r.scenario.label();
        let out = r.outcome.as_ref().unwrap_or_else(|e| panic!("{label}: {e}"));
        let text = std::fs::read_to_string(out.sidecar.as_ref().expect("a sidecar")).unwrap();
        let doc: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(doc.pointer("/trace/kernel_events").and_then(Value::as_u64), Some(0));
        let direct = stepped_directly(&r.scenario);
        let kernels = kernels_without_wall_time(&doc, &label);
        assert_eq!(kernels, serde_json::to_value(&direct), "{label}");
        assert_eq!(out.launches as u64, direct.iter().map(|k| k.launches).sum::<u64>());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_thread_sidecars_carry_only_their_own_jobs_events() {
    // Event recording with nothing draining the buffer (the summary sink
    // renders only when asked).
    let dir = std::env::temp_dir().join(format!("vgpu_sidecar_scope_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let results = executor(TraceMode::Summary, &dir).run_all(ScenarioGen::new(99).take(6));

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
                    .pointer("/account/divergent_warps")
                    .and_then(Value::as_u64)
                    .unwrap_or_else(|| panic!("{label}: kernel event without divergent_warps"));
                // Under VGPU_ENGINE=diff every launch additionally traces
                // its tree-walker oracle leg as its own kernel span; only
                // the logical launches count against the job's tally.
                if ev.pointer("/account/engine").and_then(Value::as_str) == Some("tree(oracle)") {
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
