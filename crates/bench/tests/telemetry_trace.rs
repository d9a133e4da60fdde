//! Golden end-to-end trace test: cube(16) runs of the generated FI kernel
//! and of the generated FI-MM kernel pair, each at both precisions, traced
//! in Chrome mode and written through [`bench::trace::finish`] (the path the
//! `repro_*` binaries use) must leave a Perfetto-loadable file whose kernel
//! and transfer spans carry the expected names and whose per-kernel flop
//! and transaction-byte totals reconcile exactly (±0) with what the steps
//! returned. CI uploads the file. The simulations run on a runtime of their
//! own, whose trace holds nothing else.

use bench::measure::{fi_setup, fi_single_kernels, Impl};
use lift_acoustics::LiftBoundary;
use room_acoustics::{GridDims, Precision, RoomShape, SimConfig, SimSetup, Simulation};
use std::collections::BTreeMap;
use vgpu::telemetry::{sink, TraceMode};
use vgpu::{Device, DeviceProfile, ExecMode, Runtime, Settings};

/// Launches, flops and transaction bytes per kernel name.
type Totals = BTreeMap<String, (u64, u64, u64)>;

/// Steps `sim` in model mode and adds what each launch returned to `totals`.
fn run(mut sim: Simulation, steps: usize, totals: &mut Totals) {
    sim.impulse(8, 8, 8, 1.0);
    let names: Vec<String> = sim.kernels().map(|k| k.kernel.name.clone()).collect();
    for _ in 0..steps {
        let (volume, boundary) = sim.step(ExecMode::Model { sample_stride: 1 }).remove(0);
        for (name, stats) in names.iter().zip(std::iter::once(&volume).chain(&boundary)) {
            let t = totals.entry(name.clone()).or_default();
            t.0 += 1;
            t.1 += stats.counters.flops;
            t.2 += stats.transaction_bytes.expect("model mode counts transactions");
        }
    }
}

#[test]
fn cube16_fi_and_fimm_traces_are_golden_at_both_precisions() {
    let rt = Runtime::new(Settings { trace: TraceMode::Chrome, ..vgpu::runtime().settings });

    let dims = GridDims::cube(16);
    let steps = 3;
    let mut expected = Totals::new();
    for precision in [Precision::Single, Precision::Double] {
        let device = || vec![Device::with_runtime(DeviceProfile::gtx780(), rt.clone())];
        let fi = fi_single_kernels(Impl::Lift);
        run(Simulation::new(fi_setup(dims, 0.1), precision, fi, device()), steps, &mut expected);
        let fimm = SimSetup::new(&SimConfig::fimm(dims, RoomShape::Box));
        run(Simulation::new(fimm, precision, LiftBoundary::FiMm, device()), steps, &mut expected);
    }
    let names = ["fi_single_lift", "fimm_boundary_lift", "volume_handling_lift"];
    assert_eq!(expected.keys().map(String::as_str).collect::<Vec<_>>(), names);
    for (name, totals) in &expected {
        assert_eq!(totals.0, 2 * steps as u64, "{name}: one launch per step and precision");
    }

    let events = rt.trace.events_snapshot();
    let path =
        bench::trace::finish(&rt, "telemetry_trace").expect("chrome mode writes a trace file");
    let text = std::fs::read_to_string(&path).expect("trace file readable");
    let stats =
        sink::validate_chrome(&text).unwrap_or_else(|e| panic!("invalid trace {path}: {e}"));

    // Expected span names: host-side phases, the kernels, and both transfer
    // directions (impulse reads and writes curr/prev; `nbrs` is uploaded).
    for name in ["Simulation::new", "Simulation::step"].iter().chain(&names) {
        assert!(stats.span_names.contains(*name), "missing span `{name}` in {path}");
    }
    for dir in ["ToGPU(", "ToHost("] {
        assert!(
            stats.span_names.iter().any(|n| n.starts_with(dir)),
            "missing {dir}…) transfer span in {path}"
        );
    }
    assert!(stats.transfer_bytes.get("ToGPU").is_some_and(|&b| b > 0), "no ToGPU bytes in {path}");
    assert!(stats.track_names.contains("host"), "missing host track in {path}");
    assert!(
        stats.track_names.iter().any(|n| n.ends_with("kernels")),
        "missing device kernel track in {path}"
    );

    // ±0 reconciliation against the returned launch stats, in the file and in
    // the per-kernel summary the reports embed.
    let summaries = sink::kernel_summaries(&events);
    for (name, &(launches, flops, txn)) in &expected {
        assert_eq!(stats.kernel_flops.get(name), Some(&flops), "{name}: flops in {path}");
        assert_eq!(stats.kernel_txn_bytes.get(name), Some(&txn), "{name}: txn bytes in {path}");
        let k = summaries.iter().find(|k| &k.name == name).expect("summary row");
        assert_eq!((k.launches, k.flops, k.transaction_bytes), (launches, flops, txn), "{name}");
        assert!(k.modeled_ms > 0.0, "{name}: model mode must produce a modeled time");
    }
}
