//! CI smoke check for the telemetry layer: runs a small FI-MM simulation
//! with Chrome tracing forced on, writes `results/telemetry_smoke.trace.json`
//! through the same path the `repro_*` binaries use, then re-reads the file
//! and validates it — well-formed Chrome trace JSON, the expected kernel and
//! transfer span names, and per-kernel flop totals that reconcile exactly
//! with the device's own profiling event log.
//!
//! Exits non-zero (panics) on any violation.

use lift_acoustics::{LiftBoundary, LiftSim};
use room_acoustics::{GridDims, Precision, RoomShape, SimConfig, SimSetup};
use std::collections::BTreeMap;
use vgpu::telemetry::{self, sink, TraceMode};
use vgpu::{Device, ExecMode};

fn main() {
    // Force Chrome tracing regardless of the caller's environment: the check
    // must exercise the full pipeline even when VGPU_TRACE is unset.
    telemetry::set_mode(TraceMode::Chrome);

    let dims = GridDims::cube(16);
    let steps = 4;
    // Expected flop totals per kernel name, from the device's own profiling
    // log — the trace must reconcile with these exactly.
    let mut expected_flops: BTreeMap<String, u64> = BTreeMap::new();
    for precision in [Precision::Single, Precision::Double] {
        let setup = SimSetup::new(&SimConfig::fimm(dims, RoomShape::Box));
        let mut sim = LiftSim::new(setup, precision, LiftBoundary::FiMm, Device::gtx780());
        sim.impulse(8, 8, 8, 1.0);
        for _ in 0..steps {
            sim.step(ExecMode::Model { sample_stride: 1 });
        }
        for ev in sim.devices[0].events() {
            *expected_flops.entry(ev.name.clone()).or_insert(0) += ev.stats.counters.flops;
        }
    }

    let path = bench::trace::finish("telemetry_smoke").expect("chrome mode writes a trace file");
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let stats = sink::validate_chrome(&text).unwrap_or_else(|e| panic!("invalid trace: {e}"));

    println!(
        "telemetry_smoke: {} events, {} tracks, {} span names",
        stats.events,
        stats.track_names.len(),
        stats.span_names.len()
    );

    for name in
        ["volume_handling_lift", "fimm_boundary_lift", "Simulation::step", "Simulation::new"]
    {
        assert!(stats.span_names.contains(name), "missing span `{name}` in {path}");
    }
    assert!(
        stats.span_names.iter().any(|n| n.starts_with("ToGPU(")),
        "missing ToGPU transfer span in {path}"
    );
    assert!(stats.track_names.contains("host"), "missing host track in {path}");
    assert!(
        stats.track_names.iter().any(|n| n.ends_with("kernels")),
        "missing device kernel track in {path}"
    );

    for (name, flops) in &expected_flops {
        assert_eq!(
            stats.kernel_flops.get(name),
            Some(flops),
            "trace flop total for `{name}` does not reconcile with device events"
        );
    }
    let to_gpu = stats.transfer_bytes.get("ToGPU").copied().unwrap_or(0);
    assert!(to_gpu > 0, "no ToGPU bytes recorded in {path}");

    println!("telemetry_smoke: ok ({path})");
}
